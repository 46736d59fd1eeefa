(** Uniform dispatcher over all TE computation methods under
    evaluation (Sec. 4 "Objectives and Baselines"). *)

type t =
  | Lp  (** Exact LP — the Gurobi baseline / offline optimum. *)
  | Lp_utility
      (** Exact LP with the log-utility objective (Eq. 3): soft
          fairness instead of raw throughput. *)
  | Pop of int  (** POP with k partitions. *)
  | Ecmp_wf
  | Max_min
      (** Max-min fair progressive filling over all candidate paths
          (Appendix H.4): every unfrozen commodity's rate rises at the
          same speed until a resource saturates. *)
  | Satellite_routing
  | Sate of Sate_gnn.Model.t
  | Sate_mlu of Sate_gnn.Model.t
      (** SaTE trained for the MLU objective (Appendix H.2). *)
  | Teal of Sate_baselines.Teal_like.t
  | Harp of Sate_baselines.Harp_like.t

val name : t -> string

val solve : t -> Sate_te.Instance.t -> Sate_te.Allocation.t
(** Always returns a feasible allocation. *)

val starlink_latency_ms : t -> float option
(** The computation latency the paper measured at Starlink scale
    (Sec. 5.4): SaTE 17 ms, LP (Gurobi) 47 s, POP 25 s, ECMP-WF 54 s,
    and 0 for the distributed satellite routing; [None] for the
    methods it gives no figure for.  Online replays pass it as
    {!Online.evaluate}'s [latency_override_ms]. *)
