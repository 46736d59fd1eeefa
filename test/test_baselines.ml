(* Tests for Sate_baselines: ECMP+WF, POP, satellite routing,
   Teal-like, HARP-like. *)

module Instance = Sate_te.Instance
module Allocation = Sate_te.Allocation
module Lp_solver = Sate_te.Lp_solver
module Ecmp_wf = Sate_baselines.Ecmp_wf
module Pop = Sate_baselines.Pop
module Satellite_routing = Sate_baselines.Satellite_routing
module Teal_like = Sate_baselines.Teal_like
module Harp_like = Sate_baselines.Harp_like
module Method = Sate_core.Method

let test_ecmp_feasible () =
  let inst = Helpers.congested_instance () in
  let alloc = Ecmp_wf.solve inst in
  Alcotest.(check bool) "feasible" true (Allocation.is_feasible inst alloc)

let test_ecmp_light_load_full_satisfaction () =
  let inst = Helpers.iridium_instance ~lambda:2.0 ~warmup:10.0 () in
  let alloc = Ecmp_wf.solve inst in
  Alcotest.(check bool) "satisfies nearly all at light load" true
    (Allocation.satisfied_ratio inst alloc > 0.95)

let test_ecmp_uses_min_hop_paths () =
  let inst = Helpers.iridium_instance () in
  let alloc = Ecmp_wf.solve inst in
  Array.iteri
    (fun f rates ->
      let c = inst.Instance.commodities.(f) in
      if Array.length c.Instance.paths > 0 then begin
        let min_hops =
          Array.fold_left (fun acc p -> min acc (Sate_paths.Path.hops p)) max_int
            c.Instance.paths
        in
        Array.iteri
          (fun p r ->
            if r > 1e-9 then
              Alcotest.(check int) "only min-hop paths used" min_hops
                (Sate_paths.Path.hops c.Instance.paths.(p)))
          rates
      end)
    alloc

let test_ecmp_below_lp () =
  let inst = Helpers.congested_instance () in
  let lp = Allocation.total_flow (Lp_solver.solve inst) in
  let ecmp = Allocation.total_flow (Ecmp_wf.solve inst) in
  Alcotest.(check bool) "ecmp <= lp optimum" true (ecmp <= lp +. 1e-6)

let test_pop_feasible_and_suboptimal () =
  let inst = Helpers.congested_instance () in
  let alloc = Pop.solve ~k:4 inst in
  Alcotest.(check bool) "feasible" true (Allocation.is_feasible inst alloc);
  let lp = Allocation.total_flow (Lp_solver.solve inst) in
  Alcotest.(check bool) "pop <= lp" true (Allocation.total_flow alloc <= lp +. 1e-6)

let test_pop_subproblems_partition () =
  let inst = Helpers.congested_instance () in
  let nc = Instance.num_commodities inst in
  let subs = Pop.subproblems ~k:4 inst in
  Alcotest.(check int) "k sub-instances" 4 (List.length subs);
  let seen = Array.make nc 0 in
  List.iter
    (fun ((sub : Instance.t), members) ->
      Alcotest.(check int) "one commodity per member" (Array.length members)
        (Instance.num_commodities sub);
      Array.iteri
        (fun i f ->
          seen.(f) <- seen.(f) + 1;
          Alcotest.(check bool) "member's commodity" true
            (sub.Instance.commodities.(i) == inst.Instance.commodities.(f)))
        members)
    subs;
  Alcotest.(check bool) "each commodity in exactly one" true (Array.for_all (( = ) 1) seen)

let test_pop_subproblems_scale_caps () =
  let inst = Helpers.congested_instance () in
  List.iter
    (fun ((sub : Instance.t), _) ->
      Array.iteri
        (fun r c ->
          Alcotest.(check bool) "cap / 4" true (c = inst.Instance.caps.(r) *. 0.25))
        sub.Instance.caps)
    (Pop.subproblems ~k:4 inst)

let test_pop_solve_is_union () =
  let inst = Helpers.congested_instance () in
  let union = Allocation.zeros inst in
  List.iter
    (fun (sub, members) ->
      let sub_alloc = Lp_solver.solve sub in
      Array.iteri (fun i f -> union.(f) <- Array.copy sub_alloc.(i)) members)
    (Pop.subproblems ~k:4 inst);
  Alcotest.(check bool) "union feasible" true (Allocation.is_feasible inst union);
  Alcotest.(check bool) "pop = union" true (Pop.solve ~k:4 inst = union)

let test_pop_partitions_cover_all () =
  let inst = Helpers.iridium_instance ~lambda:2.0 ~warmup:10.0 () in
  (* Light load: even with 1/k capacities every partition fits, so POP
     should satisfy nearly everything. *)
  let alloc = Pop.solve ~k:2 inst in
  Alcotest.(check bool) "near full satisfaction" true
    (Allocation.satisfied_ratio inst alloc > 0.9)

let test_satellite_routing_feasible () =
  let inst = Helpers.congested_instance () in
  let alloc = Satellite_routing.solve inst in
  Alcotest.(check bool) "feasible" true (Allocation.is_feasible inst alloc)

let test_satellite_routing_worst_under_load () =
  let inst = Helpers.congested_instance () in
  let bp = Allocation.total_flow (Satellite_routing.solve inst) in
  let lp = Allocation.total_flow (Lp_solver.solve inst) in
  Alcotest.(check bool) "below optimum under load" true (bp <= lp +. 1e-6)

let test_teal_scale_mismatch () =
  let inst = Helpers.iridium_instance () in
  let model = Teal_like.create ~num_sats:176 ~k:3 () in
  (try
     ignore (Teal_like.ratios model inst);
     Alcotest.fail "expected scale mismatch failure"
   with Invalid_argument _ -> ())

let test_teal_input_volume_quadratic () =
  (* The encoder reads the dense n^2 (1 + k) pair grid and the
     allocator writes n^2 k ratios, so ten times the satellites means
     a hundred times the weights (the 8 encoder biases stay). *)
  let weights n = Teal_like.num_parameters (Teal_like.create ~num_sats:n ~k:10 ()) - 8 in
  Alcotest.(check int) "100x weights" (100 * weights 10) (weights 100)

(* Training changed the model: its prediction differs from that of a
   fresh model with the same seed. *)
let test_teal_train_and_predict () =
  let instances = Helpers.instance_series ~count:2 () in
  let model = Teal_like.create ~num_sats:66 ~k:3 () in
  Teal_like.train ~epochs:3 model instances;
  let inst = List.hd instances in
  let alloc = Method.solve (Method.Teal model) inst in
  Alcotest.(check bool) "training changed the model" true
    (alloc <> Method.solve (Method.Teal (Teal_like.create ~num_sats:66 ~k:3 ())) inst);
  Alcotest.(check bool) "feasible" true (Allocation.is_feasible inst alloc)

let test_harp_train_and_predict () =
  let instances = Helpers.instance_series ~count:2 () in
  let model = Harp_like.create ~seed:1 () in
  Harp_like.train ~epochs:2 model instances;
  let inst = List.hd instances in
  let alloc = Method.solve (Method.Harp model) inst in
  Alcotest.(check bool) "training changed the model" true
    (alloc <> Method.solve (Method.Harp (Harp_like.create ~seed:1 ())) inst);
  Alcotest.(check bool) "feasible" true (Allocation.is_feasible inst alloc)

(* With k = 2 and three candidate paths per pair, every third path
   has no slot in the dense output. *)
let test_teal_ratios_past_k () =
  let inst = Helpers.iridium_instance () in
  let ratios = Teal_like.ratios (Teal_like.create ~num_sats:66 ~k:2 ()) inst in
  Alcotest.(check int) "one ratio per path" (Instance.num_paths inst) (Array.length ratios);
  let i = ref 0 and past_k = ref 0 in
  Array.iter
    (fun c ->
      Array.iteri
        (fun p _ ->
          if p >= 2 then begin
            incr past_k;
            Alcotest.(check (float 0.0)) "0 past k" 0.0 ratios.(!i)
          end;
          incr i)
        c.Instance.paths)
    inst.Instance.commodities;
  Alcotest.(check bool) "some paths past k" true (!past_k > 0)

let test_teal_dense_labels_are_lp_ratios () =
  let inst = Helpers.iridium_instance () in
  let n = inst.Instance.snapshot.Sate_topology.Snapshot.num_sats and k = 2 in
  let labels = Teal_like.dense_labels (Teal_like.create ~num_sats:n ~k ()) inst in
  let lp = Lp_solver.solve inst in
  let commodity = Hashtbl.create 64 in
  Array.iteri
    (fun f c -> Hashtbl.replace commodity (c.Instance.src, c.Instance.dst) f)
    inst.Instance.commodities;
  let nonzero = ref 0 in
  Array.iteri
    (fun cell label ->
      if label <> 0.0 then begin
        incr nonzero;
        let pair = cell / k and p = cell mod k in
        match Hashtbl.find_opt commodity (pair / n, pair mod n) with
        | None -> Alcotest.fail (Printf.sprintf "cell %d has no commodity" cell)
        | Some f ->
            let c = inst.Instance.commodities.(f) in
            Alcotest.(check (float 0.0)) "LP rate / demand" (lp.(f).(p) /. c.Instance.demand_mbps)
              label
      end)
    labels.Sate_tensor.Tensor.data;
  Alcotest.(check bool) "some nonzero labels" true (!nonzero > 0)

let test_harp_has_more_parameters_than_sate () =
  let sate = Sate_gnn.Model.create ~seed:1 () in
  let harp = Harp_like.create ~seed:1 () in
  Alcotest.(check bool) "harp adds transformer stage params" true
    (Harp_like.num_parameters harp > Sate_gnn.Model.num_parameters sate)

let suite =
  [ Alcotest.test_case "ecmp feasible" `Quick test_ecmp_feasible;
    Alcotest.test_case "ecmp light load" `Quick test_ecmp_light_load_full_satisfaction;
    Alcotest.test_case "ecmp min-hop only" `Quick test_ecmp_uses_min_hop_paths;
    Alcotest.test_case "ecmp below lp" `Quick test_ecmp_below_lp;
    Alcotest.test_case "pop feasible" `Quick test_pop_feasible_and_suboptimal;
    Alcotest.test_case "pop light load" `Quick test_pop_partitions_cover_all;
    Alcotest.test_case "pop subproblems partition" `Quick test_pop_subproblems_partition;
    Alcotest.test_case "pop subproblems scale caps" `Quick test_pop_subproblems_scale_caps;
    Alcotest.test_case "pop solve is union" `Quick test_pop_solve_is_union;
    Alcotest.test_case "satellite routing feasible" `Quick test_satellite_routing_feasible;
    Alcotest.test_case "satellite routing under load" `Quick test_satellite_routing_worst_under_load;
    Alcotest.test_case "teal scale mismatch" `Quick test_teal_scale_mismatch;
    Alcotest.test_case "teal input quadratic" `Quick test_teal_input_volume_quadratic;
    Alcotest.test_case "teal train/predict" `Slow test_teal_train_and_predict;
    Alcotest.test_case "harp train/predict" `Slow test_harp_train_and_predict;
    Alcotest.test_case "harp parameter count" `Quick test_harp_has_more_parameters_than_sate;
    Alcotest.test_case "teal ratios past k" `Quick test_teal_ratios_past_k;
    Alcotest.test_case "teal dense labels" `Quick test_teal_dense_labels_are_lp_ratios ]
