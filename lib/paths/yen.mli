(** Yen's k-shortest loopless paths [80].

    The classical polynomial algorithm the paper cites as too slow for
    mega-constellations (Appendix C); kept both as the correctness
    oracle for {!Grid_paths} and as the fallback when the grid
    structure cannot produce enough valid candidates.  All spur
    searches of one call share one {!Dijkstra.workspace}. *)

val paths : Sate_topology.Snapshot.t -> src:int -> dst:int -> Path.t Seq.t
(** Loopless paths in non-decreasing hop count, each computed when the
    sequence reaches it: the first [k] are {!k_shortest}'s, and
    stopping after them costs what [k_shortest ~k] costs.  Empty when
    the destination is unreachable.  The sequence is ephemeral: it
    shares mutable search state, so traverse it at most once. *)

val k_shortest :
  Sate_topology.Snapshot.t -> src:int -> dst:int -> k:int -> Path.t list
(** Up to [k] loopless paths in non-decreasing hop count.  Empty when
    the destination is unreachable. *)
