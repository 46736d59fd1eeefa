open Sate_tensor
module A = Sate_nn.Autodiff
module Instance = Sate_te.Instance

type config = {
  lambda_flow : float;
  lambda_balance : float;
  alpha_max : float;
  supervised_weight : float;
}

let default_config =
  { lambda_flow = 1.0;
    lambda_balance = 50.0;
    alpha_max = 2.0;
    supervised_weight = 4.0 }

let mse pred labels = A.mean (A.square (A.sub pred (A.const labels)))

let compute cfg (g : Te_graph.t) ~pred_ratios ~label_ratios =
  let demand = A.const (Tensor.of_column g.Te_graph.path_demand) in
  (* Predicted rates x_jp = ratio * demand. *)
  let x = A.mul pred_ratios demand in
  let total_flow = A.sum x in
  let total_demand =
    (* Each path carries its commodity's demand; the per-commodity
       demand is the traffic feature times its scale. *)
    Float.max 1.0 (Tensor.sum g.Te_graph.traffic_feat *. Te_graph.demand_scale)
  in
  (* Link loads via the (path, link) incidence, one row per snapshot
     link; a link no path uses adds a zero penalty. *)
  let n_links = Array.length g.Te_graph.link_caps in
  let penalty =
    if Array.length g.Te_graph.incidence_path = 0 then A.scalar 0.0
    else begin
      let per_entry = A.gather_rows x g.Te_graph.incidence_path in
      let loads = A.scatter_add_rows per_entry g.Te_graph.incidence_link ~rows:n_links in
      let caps = Tensor.of_column g.Te_graph.link_caps in
      let inv_caps = Tensor.create n_links 1 in
      for i = 0 to n_links - 1 do
        inv_caps.Tensor.data.(i) <- 1.0 /. Float.max 1e-9 g.Te_graph.link_caps.(i)
      done;
      let overflow = A.relu (A.sub loads (A.const caps)) in
      let util = A.mul loads (A.const inv_caps) in
      let alpha = A.exp (A.clamp_max cfg.alpha_max util) in
      A.sum (A.mul alpha overflow)
    end
  in
  let opt_term =
    A.scale
      (1.0 /. (cfg.lambda_balance *. cfg.lambda_flow *. total_demand))
      (A.add (A.scale (-.cfg.lambda_flow) total_flow) penalty)
  in
  let supervised = A.scale cfg.supervised_weight (mse pred_ratios label_ratios) in
  A.add supervised opt_term

let label_ratios_of_alloc (inst : Instance.t) alloc =
  let ratios = Tensor.create (Array.fold_left (fun n r -> n + Array.length r) 0 alloc) 1 in
  let i = ref 0 in
  Array.iteri
    (fun f rates ->
      let demand = inst.Instance.commodities.(f).Instance.demand_mbps in
      Array.iter
        (fun r ->
          ratios.Tensor.data.(!i) <- (if demand > 0.0 then r /. demand else 0.0);
          incr i)
        rates)
    alloc;
  ratios
