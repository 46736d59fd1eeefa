(** Network paths: node sequences over a topology snapshot. *)

type t = { nodes : int array }
(** Node ids from source to destination, inclusive. *)

val of_list : int list -> t
(** Validates: at least two nodes, no immediate repetition. *)

val to_list : t -> int list

val source : t -> int

val destination : t -> int

val hops : t -> int
(** Number of links traversed. *)

val compare : t -> t -> int

val is_loopless : t -> bool
(** No node appears twice. *)

val valid_in : Sate_topology.Snapshot.t -> t -> bool
(** All consecutive node pairs are linked in the snapshot
    ({!Sate_topology.Snapshot.path_valid}). *)

val length_km : Sate_topology.Snapshot.t -> t -> float
(** Geometric length, summed hop by hop over the links that
    {!Sate_topology.Snapshot.link_index} names; raises
    [Invalid_argument] if a hop is missing. *)

val delay_ms : Sate_topology.Snapshot.t -> t -> float
(** End-to-end propagation delay. *)

val link_indices : Sate_topology.Snapshot.t -> t -> int array option
(** Indices into [snapshot.links] of every hop (the Phi_pe relation of
    Appendix A), by {!Sate_topology.Snapshot.link_index}; [None] if a
    hop is missing, i.e. exactly when {!valid_in} is false. *)
