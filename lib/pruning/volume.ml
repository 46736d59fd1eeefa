module Demand = Sate_traffic.Demand
module Instance = Sate_te.Instance

type report = {
  scale : int;
  original_path_gb : float;
  pruned_path_gb : float;
  original_traffic_gb : float;
  pruned_traffic_gb : float;
  reduction : float;
}

let gb bytes = bytes /. 1e9

let measure ~num_sats ~k ~avg_path_hops ~demand ~active_paths ~active_path_hops =
  let n = float_of_int num_sats in
  (* Dense float32 traffic matrix. *)
  let original_traffic = n *. n *. 4.0 in
  (* Dense path store: k paths per ordered pair, each a sequence of
     ~avg_path_hops+1 node ids (4 bytes each). *)
  let original_path = n *. n *. float_of_int k *. (avg_path_hops +. 1.0) *. 4.0 in
  let pruned_traffic = float_of_int (Demand.sparse_volume_bytes demand) in
  let pruned_path = float_of_int ((active_path_hops + active_paths) * 4) in
  let total_orig = original_traffic +. original_path in
  let total_pruned = Float.max 1.0 (pruned_traffic +. pruned_path) in
  { scale = num_sats;
    original_path_gb = gb original_path;
    pruned_path_gb = gb pruned_path;
    original_traffic_gb = gb original_traffic;
    pruned_traffic_gb = gb pruned_traffic;
    reduction = total_orig /. total_pruned }

let of_instance ~k (inst : Instance.t) demand =
  let num_sats = inst.Instance.snapshot.Sate_topology.Snapshot.num_sats in
  let active_paths = Instance.num_paths inst in
  let active_path_hops =
    Array.fold_left
      (fun acc c ->
        Array.fold_left
          (fun acc p -> acc + Sate_paths.Path.hops p)
          acc c.Instance.paths)
      0 inst.Instance.commodities
  in
  (* Average hop count of stored paths as the dense-store estimate;
     fall back to sqrt(n) (grid diameter scale) with no paths. *)
  let avg_path_hops =
    if active_paths > 0 then float_of_int active_path_hops /. float_of_int active_paths
    else sqrt (float_of_int num_sats)
  in
  measure ~num_sats ~k ~avg_path_hops ~demand ~active_paths ~active_path_hops
