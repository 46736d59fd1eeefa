(* Link-failure robustness (Appendix H.3): inject random laser
   failures and measure how gracefully a trained SaTE model degrades —
   GNN inference needs no retraining because failed links simply
   vanish from the input graph.

   Run with:  dune exec examples/failure_study.exe *)

module Scenario = Sate_core.Scenario
module Model = Sate_gnn.Model
module Trainer = Sate_gnn.Trainer
module Analysis = Sate_topology.Analysis
module Instance = Sate_te.Instance
module Allocation = Sate_te.Allocation
module Rng = Sate_util.Rng

let rebuild_against scenario (inst : Instance.t) snap =
  (* Re-derive candidate paths on the degraded topology; demands are
     unchanged. *)
  let up_caps, down_caps = Instance.node_caps inst in
  Instance.of_demand ~up_caps ~down_caps (Scenario.constellation scenario) snap
    (Instance.demand inst) ~k:(Scenario.config scenario).Scenario.k

let () =
  print_endline "link-failure study, 66 satellites";
  let scenario = Scenario.create () in
  let samples =
    List.init 4 (fun i ->
        Trainer.make_sample (Scenario.instance_at scenario ~time_s:(float_of_int i *. 8.0)))
  in
  let model = Model.create ~seed:1 () in
  Printf.printf "training SaTE...\n%!";
  ignore (Trainer.train ~epochs:30 model samples);
  let inst = Scenario.instance_at scenario ~time_s:50.0 in
  let healthy = Allocation.satisfied_ratio inst (Model.predict model inst) in
  Printf.printf "healthy topology: satisfied=%.1f%%\n%!" (100.0 *. healthy);
  let rng = Rng.create 2 in
  List.iter
    (fun rate ->
      let degraded_snap, failed =
        Analysis.random_link_failures inst.Instance.snapshot ~rate rng
      in
      let degraded = rebuild_against scenario inst degraded_snap in
      let sat = Allocation.satisfied_ratio degraded (Model.predict model degraded) in
      Printf.printf
        "failure rate %4.1f%% (%2d links down): satisfied=%5.1f%%  loss=%4.1f%%\n%!"
        (rate *. 100.0) (List.length failed) (100.0 *. sat)
        (100.0 *. Float.max 0.0 (healthy -. sat)))
    [ 0.001; 0.01; 0.05 ];
  print_endline "no retraining was performed between failure levels."
