(** Preconfigured-path store with incremental maintenance.

    The TE workflow precomputes k candidate paths per
    source-destination pair (Sec. 2.2 step 3).  Rather than
    recomputing every pair each interval, {!update} revalidates the
    stored paths against the new snapshot and recomputes only pairs
    that lost a path — the paper reports under 2% of paths change per
    second (Sec. 4, Appendix C).  A store lives on the snapshot its
    last {!compute}, {!update} or {!add_pairs} was given, and holds
    every path resolved to that snapshot's link indices. *)

type t

type entry = {
  paths : Path.t array;
  links : int array array;  (** [links.(p)]: {!Path.link_indices} of path p. *)
}

val snapshot : t -> Sate_topology.Snapshot.t

val pairs : t -> (int * int) array
(** The tracked source-destination pairs. *)

val find : t -> src:int -> dst:int -> entry
(** Stored candidate paths for a pair (possibly fewer than [k];
    empty for untracked or disconnected pairs). *)

val compute :
  Sate_orbit.Constellation.t ->
  Sate_topology.Snapshot.t ->
  pairs:(int * int) list ->
  k:int ->
  t
(** {!add_pairs} over an empty store on the given snapshot. *)

val update : t -> Sate_topology.Snapshot.t -> t * int
(** Move to a new snapshot: resolve the stored paths in it, and
    recompute pairs with a missing hop or no paths.  Returns the new
    store and the number of pairs recomputed. *)

val add_pairs : t -> Sate_topology.Snapshot.t -> (int * int) list -> t
(** Track additional pairs (new traffic demands), computing their
    paths with {!Grid_paths}.  Raises [Invalid_argument] unless the
    snapshot is (physically) the store's own. *)

val stats : t -> int * int
(** [(num_pairs, total_paths)] currently stored. *)
