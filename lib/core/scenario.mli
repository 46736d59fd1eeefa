(** End-to-end evaluation scenario: constellation + topology builder +
    traffic generator + incrementally maintained path database.

    A scenario is the data side of the TE workflow (Fig. 3): asking
    for the instance at time t advances the satellites, expires and
    admits flows, attaches endpoints, refreshes only the paths that
    topology changes invalidated (Appendix C), and returns a ready
    {!Sate_te.Instance.t}. *)

type config = {
  scale : int;  (** Satellite count (see {!Sate_orbit.Constellation.of_scale}). *)
  cross_shell : Sate_topology.Builder.cross_shell_mode;
  lambda : float;  (** Flow arrivals per second. *)
  k : int;  (** Candidate paths per pair. *)
  seed : int;
  warmup_s : float;  (** Traffic warm-up before t = 0. *)
}

val default_config : config
(** 66 satellites, lasers, lambda 8, k 4, warm-up 60 s. *)

type t

val create : ?config:config -> unit -> t

val config : t -> config

val constellation : t -> Sate_orbit.Constellation.t

val instance_at : t -> time_s:float -> Sate_te.Instance.t
(** TE inputs at simulation time [time_s] (non-decreasing across
    calls).  Uplink/downlink capacities come from the generator's
    per-connection model. *)

val last_path_recompute_count : t -> int
(** Pairs recomputed by the most recent incremental path update. *)

val path_db : t -> Sate_paths.Path_db.t option
(** Current path database (None before the first instance). *)
