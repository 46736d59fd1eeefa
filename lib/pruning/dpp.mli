(** Determinantal-point-process subset selection (Appendix E).

    Greedy MAP inference for a DPP with RBF kernel
    [K(i,j) = exp (-||v_i - v_j||^2 / (2 sigma^2))]: repeatedly pick
    the item with the largest marginal log-determinant gain (Chen et
    al.'s fast greedy algorithm, O(n k d)).  Maximising the
    determinant selects maximally diverse vectors, i.e. structurally
    diverse topologies. *)

val select : vectors:float array array -> k:int -> int array
(** Indices of [k] diverse items: the determinant-gain order first,
    topped up arbitrarily once near-duplicates exhaust the gain (so
    callers always get [min k n] items).  [sigma] is the median
    pairwise distance estimated on a sample of the vectors. *)

val select_random : seed:int -> n:int -> k:int -> int array
(** Uniform random baseline for the DPP-vs-random ablation. *)
