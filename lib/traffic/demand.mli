(** Aggregated traffic demands between satellite pairs.

    A traffic matrix entry is the total authorised demand between a
    source and destination satellite (Sec. 2.2 step 1).  Matrices for
    mega-constellations are overwhelmingly sparse — most satellites
    fly over oceans or deserts — so the sparse representation below
    doubles as the paper's traffic pruning (§3.4): only non-zero
    entries exist. *)

type entry = { src : int; dst : int; demand_mbps : float }

type t = {
  num_sats : int;
  entries : entry array;  (** Non-zero entries, unordered pairs kept directed. *)
}

val of_assoc : num_sats:int -> (int * int * float) list -> t
(** Aggregate duplicate (src, dst) pairs; drops zero/negative demands
    and self-pairs. *)

val total_demand : t -> float
(** Sum of all entries, Mbps. *)

val num_entries : t -> int

val pairs : t -> (int * int) list
(** The [(src, dst)] pair of every entry, in entry order. *)

val sparse_volume_bytes : t -> int
(** Size of the pruned representation: 8-byte demand plus two 4-byte
    indices per non-zero entry (Table 1 "pruned"). *)

val find : t -> src:int -> dst:int -> float
(** Demand of a pair, 0 when absent. *)
