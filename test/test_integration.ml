(* Cross-module integration tests: full pipelines through orbit ->
   topology -> traffic -> paths -> TE -> learning -> evaluation. *)

module Constellation = Sate_orbit.Constellation
module Builder = Sate_topology.Builder
module Snapshot = Sate_topology.Snapshot
module Link = Sate_topology.Link
module Scenario = Sate_core.Scenario
module Method = Sate_core.Method
module Online = Sate_core.Online
module Instance = Sate_te.Instance
module Allocation = Sate_te.Allocation
module Model = Sate_gnn.Model
module Trainer = Sate_gnn.Trainer
module Te_graph = Sate_gnn.Te_graph
module Volume = Sate_pruning.Volume
module Graph_features = Sate_pruning.Graph_features
module Dpp = Sate_pruning.Dpp

let relay_scenario () =
  Scenario.create
    ~config:
      { Scenario.default_config with
        Scenario.scale = 396;
        cross_shell = Sate_topology.Builder.Ground_relays;
        lambda = 4.0;
        warmup_s = 20.0 }
    ()

let test_relay_pipeline_end_to_end () =
  (* Bent-pipe regime at mid scale: instances build, LP solves, the
     GNN graph includes relay nodes, and allocations stay feasible. *)
  let s = relay_scenario () in
  let inst = Scenario.instance_at s ~time_s:0.0 in
  Alcotest.(check bool) "commodities exist" true (Instance.num_commodities inst > 0);
  let has_relay_link =
    Array.exists
      (fun l -> l.Link.kind = Link.Relay)
      inst.Instance.snapshot.Snapshot.links
  in
  Alcotest.(check bool) "relay links present" true has_relay_link;
  let g = Te_graph.of_instance inst in
  Alcotest.(check int) "graph covers relays too"
    (Snapshot.num_nodes inst.Instance.snapshot)
    g.Te_graph.num_sats;
  let alloc = Sate_te.Lp_solver.solve inst in
  Alcotest.(check bool) "lp feasible at mid scale" true
    (Allocation.is_feasible inst alloc)

let test_relay_paths_transit_relays () =
  (* With isolated shells joined only by bent pipes, cross-shell
     commodities must route through a relay node. *)
  let s = relay_scenario () in
  let inst = Scenario.instance_at s ~time_s:0.0 in
  let num_sats = inst.Instance.snapshot.Snapshot.num_sats in
  let shells = Constellation.shells (Scenario.constellation s) in
  let shell0 = Sate_orbit.Shell.size shells.(0) in
  let crosses_shells (c : Instance.commodity) =
    (c.Instance.src < shell0) <> (c.Instance.dst < shell0)
  in
  let cross = Array.to_list inst.Instance.commodities |> List.filter crosses_shells in
  let with_relay_hop (c : Instance.commodity) =
    Array.exists
      (fun (p : Sate_paths.Path.t) ->
        Array.exists (fun n -> n >= num_sats) p.Sate_paths.Path.nodes)
      c.Instance.paths
  in
  match List.find_opt (fun c -> Array.length c.Instance.paths > 0) cross with
  | Some c -> Alcotest.(check bool) "cross-shell path uses a relay" true (with_relay_hop c)
  | None -> () (* no routable cross-shell demand in this draw *)

let test_train_then_online_pipeline () =
  (* Train briefly, then run the online loop with the trained model:
     satisfied demand must be well above zero and all ticks valid. *)
  let mk () =
    Scenario.create
      ~config:{ Scenario.default_config with Scenario.lambda = 5.0; warmup_s = 20.0 }
      ()
  in
  let s = mk () in
  let samples =
    List.init 3 (fun i ->
        Trainer.make_sample (Scenario.instance_at s ~time_s:(float_of_int i *. 6.0)))
  in
  let model = Model.create ~seed:11 () in
  ignore (Trainer.train ~epochs:15 model samples);
  let r = Online.evaluate ~duration_s:6.0 (mk ()) (Method.Sate model) in
  Alcotest.(check bool)
    (Printf.sprintf "online satisfied %.3f > 0.2" r.Online.mean_satisfied)
    true
    (r.Online.mean_satisfied > 0.2);
  Alcotest.(check int) "six ticks" 6 (List.length r.Online.per_tick)

let test_pruning_pipeline () =
  (* Vectorize a pool of snapshots, DPP-select, confirm selected
     subset is valid and volumes shrink. *)
  let b = Builder.create Constellation.iridium in
  let snaps = List.init 10 (fun i -> Builder.snapshot b ~time_s:(float_of_int i *. 60.0)) in
  let vectors = Array.of_list (List.map Graph_features.vectorize snaps) in
  let sel = Dpp.select ~vectors ~k:4 in
  Alcotest.(check bool) "selected within pool" true
    (Array.for_all (fun i -> i >= 0 && i < 10) sel);
  let inst = Helpers.iridium_instance () in
  let vol = Volume.of_instance ~k:3 inst (Instance.demand inst) in
  Alcotest.(check bool) "pruning shrinks the data point" true (vol.Volume.reduction > 1.0)

let test_lp_ub_dominates_all_methods () =
  (* System-level sanity: on one congested instance the exact LP is an
     upper bound for every implemented allocator. *)
  let inst = Helpers.congested_instance () in
  let lp = Allocation.total_flow (Sate_te.Lp_solver.solve inst) in
  let model = Model.create ~seed:12 () in
  List.iter
    (fun m ->
      let flow = Allocation.total_flow (Method.solve m inst) in
      Alcotest.(check bool)
        (Method.name m ^ " below LP bound")
        true
        (flow <= lp +. 1e-6))
    [ Method.Pop 3; Method.Ecmp_wf; Method.Satellite_routing; Method.Sate model ]

let test_carryover_degrades_gracefully () =
  (* An allocation carried across growing time gaps loses throughput
     monotonically-ish but never becomes infeasible. *)
  let s =
    Scenario.create
      ~config:{ Scenario.default_config with Scenario.lambda = 6.0; warmup_s = 30.0 }
      ()
  in
  let i0 = Scenario.instance_at s ~time_s:0.0 in
  let alloc = Sate_te.Lp_solver.solve i0 in
  List.iter
    (fun t ->
      let it = Scenario.instance_at s ~time_s:t in
      let carried = Online.carryover i0 alloc it in
      Alcotest.(check bool)
        (Printf.sprintf "feasible at t=%.0f" t)
        true
        (Allocation.is_feasible it carried))
    [ 5.0; 15.0; 40.0 ]

let suite =
  [ Alcotest.test_case "relay pipeline end-to-end" `Slow test_relay_pipeline_end_to_end;
    Alcotest.test_case "relay paths transit relays" `Slow test_relay_paths_transit_relays;
    Alcotest.test_case "train then online" `Slow test_train_then_online_pipeline;
    Alcotest.test_case "pruning pipeline" `Quick test_pruning_pipeline;
    Alcotest.test_case "lp dominates all" `Quick test_lp_ub_dominates_all_methods;
    Alcotest.test_case "carryover graceful" `Quick test_carryover_degrades_gracefully ]
