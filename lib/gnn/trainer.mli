(** Supervised training of the SaTE model against LP labels
    (Section 3.3 "Training Method"). *)

type sample = {
  instance : Sate_te.Instance.t;
  graph : Te_graph.t;
  labels : Sate_tensor.Tensor.t;  (** Optimal allocation ratios. *)
}

val make_sample : ?objective:Sate_te.Lp_solver.objective -> Sate_te.Instance.t -> sample
(** Solve the instance exactly with the LP solver to obtain labels
    (max-throughput by default; [Min_mlu] for the Appendix H.2
    variant), and pre-build its reduced TE graph (no access
    relation). *)

type report = { losses : float array  (** Mean loss per epoch. *) }

val epoch :
  Sate_nn.Optimizer.t -> ('a -> Sate_nn.Autodiff.t option) -> 'a array -> float
(** One pass over [samples] in array order: each sample's loss is
    back-propagated and followed by one optimizer step.  A sample whose
    loss is [None] is skipped; the result is the mean loss of the rest
    (0 when none).  The supervised loop of SaTE and of the learned
    baselines. *)

val train : ?epochs:int -> ?lr:float -> Model.t -> sample list -> report
(** Adam (default learning rate 2e-3, 30 epochs) over per-sample
    {!Loss.default_config} losses, samples shuffled before each
    {!epoch} by an RNG seeded with 17; samples without paths are
    skipped. *)

val fine_tune : ?epochs:int -> Model.t -> sample list -> report
(** Continue training an existing (e.g. transferred) model at the
    reduced learning rate 5e-4 — the curriculum-style adaptation the paper
    suggests for constellations under gradual expansion (Sec. 7). *)

val evaluate : Model.t -> sample list -> float
(** Mean satisfied-demand ratio of trimmed predictions. *)
