module Instance = Sate_te.Instance
module Allocation = Sate_te.Allocation
module Lp_solver = Sate_te.Lp_solver

type t =
  | Lp
  | Lp_utility
  | Pop of int
  | Ecmp_wf
  | Max_min
  | Satellite_routing
  | Sate of Sate_gnn.Model.t
  | Sate_mlu of Sate_gnn.Model.t
  | Teal of Sate_baselines.Teal_like.t
  | Harp of Sate_baselines.Harp_like.t

let name = function
  | Lp -> "lp-optimal"
  | Lp_utility -> "lp-log-utility"
  | Pop k -> Printf.sprintf "pop-%d" k
  | Ecmp_wf -> "ecmp-wf"
  | Max_min -> "max-min-fair"
  | Satellite_routing -> "satellite-routing"
  | Sate _ -> "sate"
  | Sate_mlu _ -> "sate-mlu"
  | Teal _ -> "teal-like"
  | Harp _ -> "harp-like"

(* The learned baselines' split, decoded and trimmed like
   [Sate_gnn.Model.predict]. *)
let decode inst ratios = Allocation.trim inst (Allocation.of_ratios inst ratios)

let solve m inst =
  match m with
  | Lp -> Lp_solver.solve inst
  | Lp_utility -> Lp_solver.solve ~objective:Lp_solver.Max_log_utility inst
  | Pop k -> Sate_baselines.Pop.solve ~k inst
  | Ecmp_wf -> Sate_baselines.Ecmp_wf.solve inst
  | Max_min -> Sate_baselines.Filling.(solve ~path_choice:all_paths) inst
  | Satellite_routing -> Sate_baselines.Satellite_routing.solve inst
  | Sate model | Sate_mlu model -> Sate_gnn.Model.predict model inst
  | Teal model -> decode inst (Sate_baselines.Teal_like.ratios model inst)
  | Harp model -> decode inst (Sate_baselines.Harp_like.ratios model inst)

let starlink_latency_ms = function
  | Sate _ -> Some 17.0
  | Lp -> Some 47_000.0
  | Pop _ -> Some 25_000.0
  | Ecmp_wf -> Some 54_000.0
  | Satellite_routing -> Some 0.0
  | Lp_utility | Max_min | Sate_mlu _ | Teal _ | Harp _ -> None
