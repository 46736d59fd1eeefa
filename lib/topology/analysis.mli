(** Topology-dynamics analyses from Section 2.3.

    These drive Fig. 4: topology holding time (THT), link exclusion
    versus TE-interval length, and configured-path obsolescence. *)

val holding_times_ms :
  Builder.t -> start_s:float -> dt_s:float -> count:int -> float array
(** Topology holding times: each entry is [dt_s * 1000 * k] for a
    maximal run of [k] consecutive snapshots with identical link sets
    (Fig. 4a; Sec. 2.3.1 measures with dt = 12.5 ms). *)

val exclusion_series :
  Builder.t ->
  start_s:float ->
  dt_s:float ->
  intervals:int list ->
  (int * float) list
(** For each interval length (in snapshots, ascending), the ratio of
    potentially-changing ISLs (non-intra-orbit) that are absent from
    at least one snapshot of the interval — the links a TE round of
    that duration must exclude (Fig. 4c).  Computed incrementally in
    one pass up to the largest interval. *)

val path_obsolescence :
  Builder.t ->
  start_s:float ->
  dt_s:float ->
  checkpoints:int list ->
  paths:int list list ->
  (int * float) list
(** For each checkpoint (in snapshots, ascending), the fraction of the
    given configured paths that have become invalid — some consecutive
    hop no longer linked (Fig. 4b). *)

val random_link_failures :
  Snapshot.t -> rate:float -> Sate_util.Rng.t -> Snapshot.t * (int * int) list
(** Remove each link independently with probability [rate] (Appendix
    H.3).  Returns the degraded snapshot and the failed endpoint
    pairs. *)
