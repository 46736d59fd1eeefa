(** Uniform dispatcher over all TE computation methods under
    evaluation (Sec. 4 "Objectives and Baselines"). *)

type t =
  | Lp  (** Exact LP — the Gurobi baseline / offline optimum. *)
  | Lp_utility
      (** Exact LP with the log-utility objective (Eq. 3): soft
          fairness instead of raw throughput. *)
  | Pop of int  (** POP with k partitions. *)
  | Ecmp_wf
  | Max_min  (** Max-min fair progressive filling (Appendix H.4). *)
  | Satellite_routing
  | Sate of Sate_gnn.Model.t
  | Sate_mlu of Sate_gnn.Model.t
      (** SaTE trained for the MLU objective (Appendix H.2). *)
  | Teal of Sate_baselines.Teal_like.t
  | Harp of Sate_baselines.Harp_like.t

val name : t -> string

val solve : t -> Sate_te.Instance.t -> Sate_te.Allocation.t
(** Always returns a feasible allocation. *)

val solve_timed : t -> Sate_te.Instance.t -> Sate_te.Allocation.t * float
(** Allocation plus computational latency in milliseconds.  For POP
    the latency is that of the slowest parallel partition; for the
    distributed [Satellite_routing] the paper excludes latency
    comparisons, so 0 is reported. *)
