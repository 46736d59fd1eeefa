(* Tests for Sate_core: scenarios, method dispatch, online/offline
   evaluation, control-plane analysis. *)

module Scenario = Sate_core.Scenario
module Method = Sate_core.Method
module Online = Sate_core.Online
module Offline = Sate_core.Offline
module Control_plane = Sate_core.Control_plane
module Instance = Sate_te.Instance
module Allocation = Sate_te.Allocation
module Builder = Sate_topology.Builder
module Constellation = Sate_orbit.Constellation

let quick_scenario ?(lambda = 5.0) () =
  Scenario.create
    ~config:{ Scenario.default_config with Scenario.lambda; warmup_s = 20.0 }
    ()

let test_scenario_instances () =
  let s = quick_scenario () in
  let i0 = Scenario.instance_at s ~time_s:0.0 in
  Alcotest.(check bool) "commodities" true (Instance.num_commodities i0 > 0);
  let i1 = Scenario.instance_at s ~time_s:1.0 in
  Alcotest.(check bool) "still has commodities" true (Instance.num_commodities i1 > 0);
  Alcotest.(check bool) "path db exists" true (Scenario.path_db s <> None)

let test_scenario_incremental_updates () =
  let s = quick_scenario () in
  ignore (Scenario.instance_at s ~time_s:0.0);
  ignore (Scenario.instance_at s ~time_s:1.0);
  let n_pairs, _ = Sate_paths.Path_db.stats (Option.get (Scenario.path_db s)) in
  (* Over one second very few pairs should need recomputation
     (the paper reports < 2%). *)
  Alcotest.(check bool) "few recomputes" true
    (Scenario.last_path_recompute_count s <= max 2 (n_pairs / 10))

(* Every round's commodity paths carry the link indices of that
   round's snapshot: the store resolves kept paths again on each
   update.  A path kept across rounds whose indices moved shows the
   check is not vacuous. *)
let test_path_links_fresh () =
  List.iter
    (fun (scale, cross_shell) ->
      let s =
        Scenario.create
          ~config:{ Scenario.default_config with Scenario.scale; cross_shell; warmup_s = 20.0 }
          ()
      in
      let moved = ref 0 in
      let previous = Hashtbl.create 256 in
      for r = 0 to 19 do
        let inst = Scenario.instance_at s ~time_s:(5.0 *. float_of_int r) in
        let current = Hashtbl.create 256 in
        Array.iter
          (fun (c : Instance.commodity) ->
            Array.iteri
              (fun p path ->
                let links = c.Instance.path_links.(p) in
                Alcotest.(check bool) "links resolved in this round's snapshot" true
                  (Sate_paths.Path.link_indices inst.Instance.snapshot path = Some links);
                let key = path.Sate_paths.Path.nodes in
                (match Hashtbl.find_opt previous key with
                | Some old when old <> links -> incr moved
                | _ -> ());
                Hashtbl.replace current key links)
              c.Instance.paths)
          inst.Instance.commodities;
        Hashtbl.reset previous;
        Hashtbl.iter (Hashtbl.replace previous) current
      done;
      Alcotest.(check bool)
        (Printf.sprintf "some kept path's indices moved at scale %d" scale)
        true (!moved > 0))
    [ (66, Builder.Lasers); (396, Builder.Ground_relays) ]

let test_method_names () =
  Alcotest.(check string) "lp" "lp-optimal" (Method.name Method.Lp);
  Alcotest.(check string) "pop" "pop-4" (Method.name (Method.Pop 4));
  Alcotest.(check string) "ecmp" "ecmp-wf" (Method.name Method.Ecmp_wf)

let test_method_solve () =
  let s = quick_scenario () in
  let inst = Scenario.instance_at s ~time_s:0.0 in
  List.iter
    (fun m ->
      Alcotest.(check bool)
        (Method.name m ^ " feasible")
        true
        (Allocation.is_feasible inst (Method.solve m inst)))
    [ Method.Lp; Method.Pop 2; Method.Ecmp_wf; Method.Satellite_routing ]

let test_carryover_identity () =
  let s = quick_scenario () in
  let inst = Scenario.instance_at s ~time_s:0.0 in
  let alloc = Sate_te.Lp_solver.solve inst in
  let carried = Online.carryover inst alloc inst in
  (* Same instance: nothing should be lost. *)
  Alcotest.(check (float 1e-6)) "identity carryover"
    (Allocation.total_flow alloc) (Allocation.total_flow carried)

let test_carryover_respects_new_topology () =
  let s = quick_scenario () in
  let i0 = Scenario.instance_at s ~time_s:0.0 in
  let alloc = Sate_te.Lp_solver.solve i0 in
  let i1 = Scenario.instance_at s ~time_s:30.0 in
  let carried = Online.carryover i0 alloc i1 in
  Alcotest.(check bool) "feasible on new instance" true
    (Allocation.is_feasible i1 carried)

let test_online_fast_beats_slow_same_method () =
  (* The same LP allocator with a 0 ms vs 40 s simulated latency:
     lower latency must never be worse. *)
  let run latency =
    let s = quick_scenario () in
    Online.evaluate ~latency_override_ms:latency ~duration_s:20.0 s Method.Lp
  in
  let fast = run 1.0 in
  let slow = run 40_000.0 in
  Alcotest.(check bool)
    (Printf.sprintf "fast (%.3f) >= slow (%.3f)" fast.Online.mean_satisfied
       slow.Online.mean_satisfied)
    true
    (fast.Online.mean_satisfied >= slow.Online.mean_satisfied -. 0.02);
  Alcotest.(check bool) "fast recomputes more" true
    (fast.Online.recomputations > slow.Online.recomputations)

let test_online_report_fields () =
  let s = quick_scenario () in
  let r = Online.evaluate ~duration_s:5.0 s Method.Ecmp_wf in
  Alcotest.(check string) "name" "ecmp-wf" r.Online.method_name;
  Alcotest.(check int) "five ticks" 5 (List.length r.Online.per_tick);
  List.iter
    (fun (_, v) ->
      Alcotest.(check bool) "satisfied in [0,1]" true (v >= 0.0 && v <= 1.0 +. 1e-9))
    r.Online.per_tick

let test_offline_lp_is_best () =
  let s = quick_scenario ~lambda:20.0 () in
  let instances = [ Scenario.instance_at s ~time_s:0.0 ] in
  let lp = Offline.satisfied Method.Lp instances in
  let ecmp = Offline.satisfied Method.Ecmp_wf instances in
  let routing = Offline.satisfied Method.Satellite_routing instances in
  Alcotest.(check bool) "lp >= ecmp" true (lp >= ecmp -. 1e-9);
  Alcotest.(check bool) "lp >= routing" true (lp >= routing -. 1e-9)

let test_offline_mlu () =
  let s = quick_scenario () in
  let instances = [ Scenario.instance_at s ~time_s:0.0 ] in
  let lp_mlu = Offline.mlu Method.Lp instances in
  let ecmp_mlu = Offline.mlu Method.Ecmp_wf instances in
  Alcotest.(check bool) "mlu values sane" true (lp_mlu >= 0.0 && ecmp_mlu >= 0.0)

let test_per_flow_ratios () =
  let s = quick_scenario () in
  let inst = Scenario.instance_at s ~time_s:0.0 in
  let ratios = Allocation.per_commodity_ratio inst (Method.solve Method.Lp inst) in
  Alcotest.(check int) "per commodity" (Instance.num_commodities inst) (Array.length ratios)

let control_plane_snapshot () =
  (* 396-satellite mid-size constellation: dense enough that some
     satellite is always above Houston's 25-degree elevation mask. *)
  let b = Builder.create (Constellation.of_scale 396) in
  Builder.snapshot b ~time_s:0.0

let test_control_plane_delays () =
  let snap = control_plane_snapshot () in
  let delays = Control_plane.rule_distribution_delays_ms snap in
  Alcotest.(check int) "one delay per satellite" 396 (Array.length delays);
  let finite = Array.to_list delays |> List.filter Float.is_finite in
  Alcotest.(check bool) "most satellites reachable" true
    (List.length finite > 300);
  List.iter
    (fun d -> Alcotest.(check bool) "delay in (0, 500) ms" true (d > 0.0 && d < 500.0))
    finite

let test_control_plane_direct_faster () =
  let snap = control_plane_snapshot () in
  let delays = Control_plane.rule_distribution_delays_ms snap in
  let finite = Array.to_list delays |> List.filter Float.is_finite in
  let lo = List.fold_left Float.min Float.infinity finite in
  (* A satellite overhead Houston at ~550 km: a couple of ms. *)
  Alcotest.(check bool) "direct satellites very fast" true (lo < 15.0)

let suite =
  [ Alcotest.test_case "scenario instances" `Quick test_scenario_instances;
    Alcotest.test_case "incremental updates" `Quick test_scenario_incremental_updates;
    Alcotest.test_case "method names" `Quick test_method_names;
    Alcotest.test_case "method solve" `Quick test_method_solve;
    Alcotest.test_case "carryover identity" `Quick test_carryover_identity;
    Alcotest.test_case "carryover new topology" `Quick test_carryover_respects_new_topology;
    Alcotest.test_case "online fast beats slow" `Slow test_online_fast_beats_slow_same_method;
    Alcotest.test_case "online report" `Quick test_online_report_fields;
    Alcotest.test_case "offline lp best" `Quick test_offline_lp_is_best;
    Alcotest.test_case "offline mlu" `Quick test_offline_mlu;
    Alcotest.test_case "per flow ratios" `Quick test_per_flow_ratios;
    Alcotest.test_case "control plane delays" `Quick test_control_plane_delays;
    Alcotest.test_case "direct satellites fast" `Quick test_control_plane_direct_faster;
    Alcotest.test_case "path links fresh" `Quick test_path_links_fresh ]
