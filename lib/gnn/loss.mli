(** The mixed training loss of Appendix B (Eqs. 4, 5):

    {v L = L_supervised
        + (- lambda_flow * total_flow + sum_i alpha_i * over_flow_i)
          / (lambda_balance * lambda_flow * total_demand) v}

    where [alpha_i = exp (min (utilization_i / capacity_i, alpha_max))]
    weighs each link's overload penalty, [total_flow] rewards
    allocated traffic, and [L_supervised] is the mean squared error
    against the LP labels (as allocation ratios). *)

type config = {
  lambda_flow : float;
  lambda_balance : float;
  alpha_max : float;
  supervised_weight : float;
}

val default_config : config
(** Grid-searched defaults used across the evaluation (the balance
    keeps the early overload penalty from collapsing the allocator to
    zero before the supervised signal takes hold). *)

val mse : Sate_nn.Autodiff.t -> Sate_tensor.Tensor.t -> Sate_nn.Autodiff.t
(** Mean squared error of a prediction against fixed labels: the
    supervised term of {!compute} and the whole loss of the Teal-like
    and HARP-like baselines. *)

val compute :
  config ->
  Te_graph.t ->
  pred_ratios:Sate_nn.Autodiff.t ->
  label_ratios:Sate_tensor.Tensor.t ->
  Sate_nn.Autodiff.t
(** Scalar loss node; differentiable end to end (including the
    penalty term, through the clamped exponential). *)

val label_ratios_of_alloc :
  Sate_te.Instance.t -> Sate_te.Allocation.t -> Sate_tensor.Tensor.t
(** Convert an (LP-optimal) allocation into the per-path ratio labels
    the supervised term compares against, ordered like the graph's
    path nodes. *)
