(** Fixed-size topology vectorisation (Appendix E, Graph2Vec step).

    Graph2Vec embeds graphs from their Weisfeiler–Lehman subtree
    structures; this module computes the same WL subtree features
    directly and feature-hashes their counts into a fixed-dimension
    vector, so topologies with similar local structure land close in
    the embedding space. *)

val dimension : int
(** 128, matching the paper's Graph2Vec dimensionality. *)

val vectorize : Sate_topology.Snapshot.t -> float array
(** Three rounds of WL refinement starting from degree labels; every (node, round) label is hashed into one of
    {!dimension} buckets.  The result is L2-normalised. *)

val cosine : float array -> float array -> float
(** Cosine similarity of two vectors. *)

val euclidean : float array -> float array -> float
