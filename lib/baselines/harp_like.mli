(** HARP-like learning baseline [2].

    Architectural stand-in for HARP (SIGCOMM '24): a GNN TE model for
    changing topologies whose distinguishing component is an
    edge-path embedding transformer — dense attention among paths that
    share links.  That stage reproduces the two properties the paper
    leans on:

    - per-inference cost grows with network size (the pairwise
      path-interaction count grows with path density per link),
      giving HARP its ~4x latency gap versus SaTE (Fig. 8a);
    - the model is trained for MLU minimisation (its native
      objective, Fig. 15a) and is "not inherently adaptable to
      throughput maximisation" — throughput readings come from the
      same MLU-trained model. *)

type t

val create : ?seed:int -> unit -> t
(** A SaTE {!Sate_gnn.Model} (default hyperparameters) plus the
    edge-path transformer stage, both {!Sate_gnn.Model.dim} wide. *)

val num_parameters : t -> int

val train : ?epochs:int -> t -> Sate_te.Instance.t list -> unit
(** Supervised training against MLU-optimal LP labels: one
    {!Sate_gnn.Trainer.epoch} of {!Sate_gnn.Loss.mse} per epoch, in
    instance order, skipping instances without paths (Adam, learning
    rate 2e-3). *)

val ratios : t -> Sate_te.Instance.t -> float array
(** Per-path split ratios in the instance's path order, for
    {!Sate_te.Allocation.of_ratios} (it generalises across topologies
    like any GNN, but splits for MLU, not throughput). *)
