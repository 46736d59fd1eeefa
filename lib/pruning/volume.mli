(** Data-point volume accounting (Section 3.4, Table 1).

    A TE data point for a DNN-based method must materialise the dense
    [n x n] traffic matrix plus all [n x n x k] preconfigured paths;
    SaTE's traffic & path pruning keeps only non-zero demands and
    their candidate paths.  This module measures both
    representations. *)

type report = {
  scale : int;  (** Number of satellites. *)
  original_path_gb : float;
  pruned_path_gb : float;
  original_traffic_gb : float;
  pruned_traffic_gb : float;
  reduction : float;  (** Total original / total pruned. *)
}

val measure :
  num_sats:int ->
  k:int ->
  avg_path_hops:float ->
  demand:Sate_traffic.Demand.t ->
  active_paths:int ->
  active_path_hops:int ->
  report
(** [measure] computes the dense sizes analytically (4-byte floats:
    [n^2] demands; [n^2 * k] paths of [avg_path_hops] node ids) and
    the pruned sizes from the actual sparse data (non-zero demand
    entries; [active_paths] stored paths totalling [active_path_hops]
    node ids). *)

val of_instance : k:int -> Sate_te.Instance.t -> Sate_traffic.Demand.t -> report
(** Convenience: derive all counts from a built instance. *)
