(** Yen's k-shortest loopless paths [80].

    The classical polynomial algorithm the paper cites as too slow for
    mega-constellations (Appendix C); kept both as the correctness
    oracle for {!Grid_paths} and as the fallback when the grid
    structure cannot produce enough valid candidates. *)

val k_shortest :
  Sate_topology.Snapshot.t -> src:int -> dst:int -> k:int -> Path.t list
(** Up to [k] loopless paths in non-decreasing hop count.  Empty when
    the destination is unreachable. *)
