(** The SaTE model (Section 3.3, Fig. 7): three sequential GNN
    modules over the simplified TE graph plus an MLP decoder.

    - Module R1 refines satellite embeddings over inter-satellite
      links;
    - Module R2 updates satellite and path embeddings concurrently
      over the crosses relation;
    - Module R3 refines path and traffic embeddings over the
      transports relation;
    - the decoder maps each path embedding (concatenated with its
      demand embedding) to an allocation ratio in (0, 1); the
      predicted rate is ratio x demand ({!Sate_te.Allocation.of_ratios}).

    Embeddings are initialised exactly as in the Fig. 7 table: each
    scalar TE input times a learnable 1 x d matrix W.  Residual
    connections mitigate over-smoothing (Appendix B).  The paper uses
    d = 768 on an A100; here {!dim} is 32, which keeps the
    architecture identical while fitting laptop budgets.  Each module
    stacks two GAT blocks of {!heads} heads, and the decoder has one
    hidden layer of 64 units. *)

val dim : int
(** Embedding width d: 32 (the paper's 768 scaled to CPU, Sec. 3.3). *)

val heads : int
(** Attention heads per GAT block: 2. *)

type hyper = {
  attention : bool;  (** false = mean-aggregation ablation. *)
  with_access_relation : bool;
      (** true = keep the redundant access relation (Fig. 6a ablation),
          adding a fourth module and its latency cost. *)
}

val default_hyper : hyper
(** Attention on, access relation off (the paper's model). *)

type t

val create : ?hyper:hyper -> seed:int -> unit -> t

val hyper : t -> hyper

val params : t -> Sate_nn.Autodiff.t list

val num_parameters : t -> int

val forward : ?parallel:bool -> t -> Te_graph.t -> Sate_nn.Autodiff.t
(** Allocation ratios, [num_paths x 1], each in (0, 1).
    [~parallel:true] (default false) runs the attention heads and the
    independent per-layer block updates of R2/R3 on the
    {!Sate_par.Par} domain pool; forward values are bit-identical to
    the sequential pass, but graph construction order is not, so
    training (which runs {!Sate_nn.Autodiff.backward}) sticks with the
    default. *)

val ratios : t -> Sate_te.Instance.t -> float array
(** Inference: [forward ~parallel:true] on the instance's graph (built
    with the model's own access-relation setting), one ratio per path
    in the instance's path order: the forward value's data, not a
    copy.  It allocates no gradient buffers. *)

val predict : t -> Sate_te.Instance.t -> Sate_te.Allocation.t
(** End to end: {!ratios}, decoded by {!Sate_te.Allocation.of_ratios}
    and corrected by the §3.3 feasibility trim
    ({!Sate_te.Allocation.trim}). *)

val save : t -> string -> unit
(** Persist hyperparameters and weights to a file, after a version
    tag. *)

val load : string -> t
(** Restore a model saved by {!save}.  Raises
    [Invalid_argument "Model.load: ..."] when the file does not start
    with this version's tag (another format, an older model file, or
    no model at all) or when the data after the tag is cut short or
    corrupt. *)
