(* Tests for Sate_te: instances, allocations, trimming, LP solver. *)

module Instance = Sate_te.Instance
module Allocation = Sate_te.Allocation
module Lp_solver = Sate_te.Lp_solver
module Rng = Sate_util.Rng
module Snapshot = Sate_topology.Snapshot
module Link = Sate_topology.Link
module Analysis = Sate_topology.Analysis
module Path = Sate_paths.Path
module Path_db = Sate_paths.Path_db
module Demand = Sate_traffic.Demand
module Constellation = Sate_orbit.Constellation
module Online = Sate_core.Online

let test_instance_construction () =
  let inst = Helpers.iridium_instance () in
  Alcotest.(check bool) "has commodities" true (Instance.num_commodities inst > 0);
  Alcotest.(check bool) "has paths" true (Instance.num_paths inst > 0);
  Alcotest.(check bool) "demand positive" true (Instance.total_demand inst > 0.0);
  Alcotest.(check bool) "routable <= total" true
    (Instance.routable_demand inst <= Instance.total_demand inst +. 1e-9)

(* Rebuilding an instance on a degraded snapshot (Appendix H.3) keeps
   the traffic and node capacities and drops only the failed links. *)
let test_rebuild_on_degraded_snapshot () =
  let inst = Helpers.iridium_instance () in
  let snap, failed =
    Analysis.random_link_failures inst.Instance.snapshot ~rate:0.05 (Rng.create 8)
  in
  Alcotest.(check bool) "some links failed" true (failed <> []);
  let rebuilt =
    let up_caps, down_caps = Instance.node_caps inst in
    Instance.of_demand ~up_caps ~down_caps Sate_orbit.Constellation.iridium snap
      (Instance.demand inst) ~k:3
  in
  let traffic (i : Instance.t) =
    Array.to_list
      (Array.map
         (fun (c : Instance.commodity) ->
           (c.Instance.src, c.Instance.dst, c.Instance.demand_mbps))
         i.Instance.commodities)
  in
  Alcotest.(check (list (triple int int (float 0.0))))
    "commodities kept" (traffic inst) (traffic rebuilt);
  List.iter
    (fun (name, caps) ->
      Alcotest.(check bool) (name ^ " caps are bounded") true
        (Array.exists Float.is_finite (caps inst));
      Alcotest.(check bool) (name ^ " caps kept") true (caps rebuilt = caps inst))
    [ ("uplink", fun i -> fst (Instance.node_caps i));
      ("downlink", fun i -> snd (Instance.node_caps i)) ];
  Alcotest.(check bool) "built on the degraded snapshot" true
    (rebuilt.Instance.snapshot == snap);
  let is_failed (l : Link.t) =
    List.mem (Link.key l) (List.map (fun (u, v) -> (min u v, max u v)) failed)
  in
  Array.iter
    (fun (c : Instance.commodity) ->
      Array.iteri
        (fun p path ->
          Alcotest.(check bool) "path valid in degraded snapshot" true
            (Path.valid_in snap path);
          let hops = Array.of_list (Path.to_list path) in
          Array.iteri
            (fun h li ->
              Alcotest.(check bool) "link index in range" true
                (li >= 0 && li < Array.length snap.Snapshot.links);
              let l = snap.Snapshot.links.(li) in
              Alcotest.(check (pair int int))
                "link joins the hop's nodes" (Link.key l)
                (min hops.(h) hops.(h + 1), max hops.(h) hops.(h + 1));
              Alcotest.(check bool) "link did not fail" false (is_failed l))
            c.Instance.path_links.(p))
        c.Instance.paths)
    rebuilt.Instance.commodities

let test_zeros_allocation () =
  let inst = Helpers.iridium_instance () in
  let alloc = Allocation.zeros inst in
  Alcotest.(check (float 0.0)) "no flow" 0.0 (Allocation.total_flow alloc);
  Alcotest.(check bool) "feasible" true (Allocation.is_feasible inst alloc);
  Alcotest.(check (float 0.0)) "mlu zero" 0.0 (Allocation.mlu inst alloc)

let test_of_ratios () =
  let inst = Helpers.iridium_instance () in
  let n = Instance.num_paths inst in
  Alcotest.(check bool) "all-zero ratios are zeros" true
    (Allocation.of_ratios inst (Array.make n 0.0) = Allocation.zeros inst);
  let full = Allocation.of_ratios inst (Array.make n 1.0) in
  Alcotest.(check (list int)) "shape of zeros"
    (Array.to_list (Array.map Array.length (Allocation.zeros inst)))
    (Array.to_list (Array.map Array.length full));
  Array.iteri
    (fun f rates ->
      let demand = inst.Instance.commodities.(f).Instance.demand_mbps in
      Array.iter (fun r -> Alcotest.(check (float 0.0)) "full demand" demand r) rates)
    full;
  (* A distinct ratio per path lands on that path, in the flat
     commodity-major order. *)
  let ramp = Array.init n (fun i -> float_of_int (i + 1) /. float_of_int n) in
  let i = ref 0 in
  Array.iteri
    (fun f rates ->
      let demand = inst.Instance.commodities.(f).Instance.demand_mbps in
      Array.iter
        (fun r ->
          Alcotest.(check (float 0.0)) "flat order" (demand *. ramp.(!i)) r;
          incr i)
        rates)
    (Allocation.of_ratios inst ramp);
  Alcotest.check_raises "one ratio per path"
    (Invalid_argument "Allocation.of_ratios: not one ratio per path") (fun () ->
      ignore (Allocation.of_ratios inst (Array.make (n + 1) 0.0)))

let test_scale_to_demand () =
  let inst = Helpers.iridium_instance () in
  let alloc = Allocation.zeros inst in
  (* Grossly over-allocate every path, including negative noise. *)
  Array.iteri
    (fun f rates ->
      Array.iteri
        (fun p _ ->
          rates.(p) <-
            (if p mod 2 = 0 then 1e6 else -5.0))
        alloc.(f);
      ignore f)
    alloc;
  let scaled = Allocation.scale_to_demand inst alloc in
  Array.iteri
    (fun f rates ->
      let total = Array.fold_left ( +. ) 0.0 rates in
      let demand = inst.Instance.commodities.(f).Instance.demand_mbps in
      Alcotest.(check bool) "within demand" true (total <= demand +. 1e-6);
      Array.iter (fun r -> Alcotest.(check bool) "nonneg" true (r >= 0.0)) rates)
    scaled

let test_trim_always_feasible () =
  let inst = Helpers.congested_instance () in
  let rng = Rng.create 3 in
  for _ = 1 to 10 do
    let alloc = Allocation.zeros inst in
    Array.iter
      (fun rates ->
        Array.iteri (fun p _ -> rates.(p) <- Rng.uniform rng (-10.0) 500.0) rates)
      alloc;
    let trimmed = Allocation.trim inst alloc in
    Alcotest.(check bool) "trim output feasible" true (Allocation.is_feasible inst trimmed)
  done

let test_trim_keeps_feasible_allocation () =
  let inst = Helpers.iridium_instance () in
  let lp = Lp_solver.solve inst in
  let again = Allocation.trim inst lp in
  (* Trimming a feasible allocation must not lose throughput. *)
  Alcotest.(check (float 1e-6)) "no loss"
    (Allocation.total_flow lp) (Allocation.total_flow again)

let test_lp_optimality_vs_heuristics () =
  let inst = Helpers.congested_instance () in
  let lp = Lp_solver.solve inst in
  Alcotest.(check bool) "lp feasible" true (Allocation.is_feasible inst lp);
  let ecmp = Sate_baselines.Ecmp_wf.solve inst in
  let bp = Sate_baselines.Satellite_routing.solve inst in
  let lp_flow = Allocation.total_flow lp in
  Alcotest.(check bool) "lp >= ecmp" true (lp_flow >= Allocation.total_flow ecmp -. 1e-6);
  Alcotest.(check bool) "lp >= backpressure" true (lp_flow >= Allocation.total_flow bp -. 1e-6)

let test_lp_light_load_satisfies_all () =
  let inst = Helpers.iridium_instance ~lambda:2.0 ~warmup:10.0 () in
  let lp = Lp_solver.solve inst in
  Alcotest.(check bool) "nearly all demand satisfied" true
    (Allocation.satisfied_ratio inst lp > 0.99)

let test_mlu_routes_all_demand () =
  let inst = Helpers.iridium_instance ~lambda:5.0 () in
  let alloc, t = Lp_solver.solve_with_value ~objective:Lp_solver.Min_mlu inst in
  (* All routable demand must be carried (equality constraints). *)
  let flow = Allocation.total_flow alloc in
  Alcotest.(check bool) "all routable demand routed" true
    (Float.abs (flow -. Instance.routable_demand inst) < 1e-3);
  Alcotest.(check (float 1e-4)) "objective equals achieved MLU" t (Allocation.mlu inst alloc)

let test_mlu_below_throughput_mlu () =
  let inst = Helpers.iridium_instance ~lambda:5.0 () in
  let mlu_alloc, t = Lp_solver.solve_with_value ~objective:Lp_solver.Min_mlu inst in
  ignore mlu_alloc;
  let thr = Lp_solver.solve inst in
  (* If max-throughput satisfies all demand, the MLU optimum can only
     be lower or equal. *)
  if Allocation.satisfied_ratio inst thr > 0.999 then
    Alcotest.(check bool) "mlu optimum <= throughput solution mlu" true
      (t <= Allocation.mlu inst thr +. 1e-6)

let test_per_commodity_ratio () =
  let inst = Helpers.iridium_instance () in
  let lp = Lp_solver.solve inst in
  let ratios = Allocation.per_commodity_ratio inst lp in
  Alcotest.(check int) "one ratio per commodity" (Instance.num_commodities inst)
    (Array.length ratios);
  Array.iter
    (fun r -> Alcotest.(check bool) "ratio in [0,1]" true (r >= -1e-9 && r <= 1.0 +. 1e-6))
    ratios

(* Resource ranges of [Instance.caps]: links, uplinks, downlinks. *)
let n_links (inst : Instance.t) = Array.length inst.Instance.snapshot.Snapshot.links

let uplink (inst : Instance.t) node = n_links inst + node

let downlink (inst : Instance.t) node =
  n_links inst + Snapshot.num_nodes inst.Instance.snapshot + node

let with_caps (inst : Instance.t) f =
  { inst with Instance.caps = Array.mapi f inst.Instance.caps }

let test_node_caps_respected () =
  (* Tight uplink caps must bind. *)
  let inst = Helpers.iridium_instance () in
  let is_uplink r = r >= uplink inst 0 && r < downlink inst 0 in
  let tight = with_caps inst (fun r c -> if is_uplink r then 1.0 else c) in
  let lp = Lp_solver.solve tight in
  Array.iteri
    (fun r l ->
      if is_uplink r then
        Alcotest.(check bool) "uplink cap respected" true (l <= 1.0 +. 1e-6))
    (Allocation.loads tight lp)

(* Every TE module reads link capacity from [Instance.caps]: with one
   loaded link's entry halved while the snapshot still says 200 Mbps,
   no method may load it past the halved cap, and each must return
   what it returns when the snapshot agrees.  The second check sees a
   module whose own capacity read is masked by a final trim. *)
let test_instance_caps_bind () =
  let inst = Helpers.iridium_instance () in
  let lp = Lp_solver.solve inst in
  let loads = Allocation.loads inst lp in
  let link = ref 0 in
  for li = 1 to n_links inst - 1 do
    if loads.(li) > loads.(!link) then link := li
  done;
  let link = !link in
  let snap = inst.Instance.snapshot in
  Alcotest.(check (float 0.0)) "snapshot capacity" 200.0
    snap.Snapshot.links.(link).Link.capacity_mbps;
  let cap = inst.Instance.caps.(link) /. 2.0 in
  Alcotest.(check bool) "halved cap binds the LP" true (loads.(link) > cap +. 1e-6);
  let halved = with_caps inst (fun r c -> if r = link then cap else c) in
  let agreed =
    { halved with
      Instance.snapshot =
        { snap with
          Snapshot.links =
            Array.mapi
              (fun li l -> if li = link then { l with Link.capacity_mbps = cap } else l)
              snap.Snapshot.links } }
  in
  List.iter
    (fun (name, solve) ->
      let alloc = solve halved in
      let load = (Allocation.loads halved alloc).(link) in
      if load > cap +. 1e-6 then
        Alcotest.failf "%s loads link %d to %.9g over its cap %.9g" name link load cap;
      Alcotest.(check bool) (name ^ " ignores the snapshot's capacity") true
        (alloc = solve agreed))
    [ ("max-throughput", fun i -> Lp_solver.solve i);
      ("log-utility", fun i -> Lp_solver.solve ~objective:Lp_solver.Max_log_utility i);
      ("ecmp-wf", Sate_baselines.Ecmp_wf.solve);
      ("max-min", Sate_baselines.Filling.solve ~path_choice:Sate_baselines.Filling.all_paths);
      ("pop", fun i -> Sate_baselines.Pop.solve i);
      ("trim", fun i -> Allocation.trim i lp) ];
  (* The min-MLU LP routes all demand, so its bound is the utilisation
     it reports. *)
  let alloc, t = Lp_solver.solve_with_value ~objective:Lp_solver.Min_mlu halved in
  let achieved = Allocation.mlu halved alloc in
  if achieved > t +. (1e-5 *. Float.max 1.0 t) then
    Alcotest.failf "min-mlu: achieved MLU %.9g exceeds optimum %.9g" achieved t;
  Alcotest.(check bool) "min-mlu ignores the snapshot's capacity" true
    ((alloc, t) = Lp_solver.solve_with_value ~objective:Lp_solver.Min_mlu agreed);
  let g = Sate_gnn.Te_graph.of_instance halved in
  Alcotest.(check (float 0.0)) "graph link capacity" cap g.Sate_gnn.Te_graph.link_caps.(link);
  Alcotest.(check (float 0.0)) "R1 feature" (cap /. Sate_gnn.Te_graph.capacity_scale)
    (Sate_tensor.Tensor.get g.Sate_gnn.Te_graph.r1.Sate_gnn.Te_graph.feat (2 * link) 0)

(* One allocation over a link, an uplink and a downlink is reported
   in resource order, with each resource's id and capacity. *)
let test_violations_order () =
  let inst = Helpers.iridium_instance () in
  let f, c =
    let rec first f =
      let c = inst.Instance.commodities.(f) in
      if Array.length c.Instance.paths > 0 && c.Instance.demand_mbps > 0.0 then (f, c)
      else first (f + 1)
    in
    first 0
  in
  let rate = c.Instance.demand_mbps and link = c.Instance.path_links.(0).(0) in
  let capacity = rate /. 2.0 in
  let tight = [ link; uplink inst c.Instance.src; downlink inst c.Instance.dst ] in
  let inst = with_caps inst (fun r _ -> if List.mem r tight then capacity else Float.infinity) in
  let alloc = Allocation.zeros inst in
  alloc.(f).(0) <- rate;
  let expected =
    [ Allocation.Link_overload { link; load = rate; capacity };
      Allocation.Uplink_overload { node = c.Instance.src; load = rate; capacity };
      Allocation.Downlink_overload { node = c.Instance.dst; load = rate; capacity } ]
  in
  let actual = Allocation.violations inst alloc in
  Alcotest.(check (list string)) "violations"
    (List.map Allocation.violation_to_string expected)
    (List.map Allocation.violation_to_string actual);
  Alcotest.(check bool) "exact loads and capacities" true (actual = expected)

let test_carryover_drops_invalid_paths () =
  let inst = Helpers.iridium_instance () in
  let lp = Lp_solver.solve inst in
  (* Remove a carrying link; carrying the allocation onto the same
     demand over the degraded snapshot, with the path store updated
     there as Scenario does, must drop the flows on paths using it. *)
  let loads = Allocation.loads inst lp in
  let victim = ref (-1) in
  for li = n_links inst - 1 downto 0 do
    if loads.(li) > 0.0 then victim := li
  done;
  if !victim >= 0 then begin
    let snap = inst.Instance.snapshot in
    let l = snap.Snapshot.links.(!victim) in
    let degraded = Snapshot.remove_links snap [ (l.Link.u, l.Link.v) ] in
    let demand = Instance.demand inst in
    let db = Path_db.compute Constellation.iridium snap ~pairs:(Demand.pairs demand) ~k:3 in
    let db, _ = Path_db.update db degraded in
    let restricted = Online.carryover inst lp (Instance.make degraded demand db) in
    Alcotest.(check bool) "flow dropped" true
      (Allocation.total_flow restricted < Allocation.total_flow lp)
  end

(* A store lives on one snapshot; an instance on any other one is
   refused rather than given stale link indices. *)
let test_make_other_snapshot () =
  let inst = Helpers.iridium_instance () in
  let snap = inst.Instance.snapshot in
  let demand = Instance.demand inst in
  let db = Path_db.compute Constellation.iridium snap ~pairs:(Demand.pairs demand) ~k:3 in
  let b = Sate_topology.Builder.create Constellation.iridium in
  let later = Sate_topology.Builder.snapshot b ~time_s:5.0 in
  Alcotest.check_raises "other snapshot"
    (Invalid_argument "Instance.make: path store is not on this snapshot") (fun () ->
      ignore (Instance.make later demand db))

let test_verify_mode_all_objectives () =
  (* ~verify:true certifies every simplex outcome and re-audits the
     allocation; any discrepancy raises Verification_failed. *)
  List.iter
    (fun inst ->
      List.iter
        (fun objective ->
          match Lp_solver.solve_with_value ~objective ~verify:true inst with
          | exception Lp_solver.Verification_failed msg -> Alcotest.fail msg
          | alloc, value ->
              Alcotest.(check bool) "finite value" true (Float.is_finite value);
              let alloc', value' = Lp_solver.solve_with_value ~objective inst in
              Alcotest.(check (float 1e-9)) "same value as unverified" value' value;
              Alcotest.(check bool) "same allocation as unverified" true (alloc = alloc'))
        [ Lp_solver.Max_throughput; Lp_solver.Min_mlu; Lp_solver.Max_log_utility ])
    [ Helpers.iridium_instance (); Helpers.congested_instance () ]

(* With every link at zero capacity no demand can be routed, so the
   min-MLU LP is infeasible: ~verify:true must say so, and the plain
   call returns its documented failure value. *)
let test_verify_raises_on_solver_failure () =
  let inst = Helpers.iridium_instance () in
  let dead = with_caps inst (fun r c -> if r < n_links inst then 0.0 else c) in
  Alcotest.(check bool) "raises under verify" true
    (match Lp_solver.solve_with_value ~objective:Lp_solver.Min_mlu ~verify:true dead with
    | exception Lp_solver.Verification_failed _ -> true
    | _ -> false);
  let alloc, value = Lp_solver.solve_with_value ~objective:Lp_solver.Min_mlu dead in
  Alcotest.(check bool) "zero allocation" true (alloc = Allocation.zeros dead);
  Alcotest.(check (float 0.0)) "infinite MLU" Float.infinity value

(* The log-utility LP's rows are sparse, so building and solving it
   allocates little beyond the tableau itself, which holds only the
   non-basic columns: rows x (vars + 1) words, every row here being a
   <= row whose slack starts basic. *)
let test_lp_allocation () =
  let inst = Helpers.iridium_instance () in
  let commodities = Array.to_list inst.Instance.commodities in
  let with_paths = List.filter (fun c -> Array.length c.Instance.paths > 0) commodities in
  let routable = List.filter (fun c -> c.Instance.demand_mbps > 0.0) with_paths in
  let node_rows caps endpoint =
    List.sort_uniq compare
      (List.filter_map
         (fun c ->
           let node = endpoint c in
           if Float.is_finite caps.(node) then Some node else None)
         with_paths)
    |> List.length
  in
  (* One capacity row per distinct link some candidate path crosses. *)
  let link_rows =
    List.concat_map
      (fun c -> List.concat_map Array.to_list (Array.to_list c.Instance.path_links))
      commodities
    |> List.sort_uniq compare |> List.length
  in
  let rows =
    link_rows
    + node_rows (fst (Instance.node_caps inst)) (fun c -> c.Instance.src)
    + node_rows (snd (Instance.node_caps inst)) (fun c -> c.Instance.dst)
    + List.length with_paths
    + (4 * List.length routable)
  in
  let vars = Instance.num_paths inst + List.length routable in
  let tableau = float_of_int (rows * (vars + 1)) in
  let words =
    Helpers.words_allocated (fun () ->
        Lp_solver.solve ~objective:Lp_solver.Max_log_utility inst)
  in
  if words >= 2.0 *. tableau then
    Alcotest.failf "log-utility LP allocated %.0f words, tableau %.0f" words tableau

let test_violations_empty_on_lp () =
  let inst = Helpers.congested_instance () in
  let lp = Lp_solver.solve inst in
  Alcotest.(check (list string)) "no violations"
    []
    (List.map Allocation.violation_to_string (Allocation.violations inst lp))

let test_violations_structured () =
  let inst = Helpers.iridium_instance () in
  let lp = Lp_solver.solve inst in
  (* Corrupt one rate: negative flow. *)
  let neg = Array.map Array.copy lp in
  neg.(0).(0) <- -1.0;
  let vs = Allocation.violations inst neg in
  Alcotest.(check bool) "negative rate reported" true
    (List.exists
       (function
         | Allocation.Negative_rate { commodity = 0; path = 0; rate } ->
             Float.abs (rate +. 1.0) < 1e-9
         | _ -> false)
       vs);
  (* Corrupt one rate: far above demand, overloading its links. *)
  let big = Array.map Array.copy lp in
  big.(0).(0) <- 1e7;
  let vs = Allocation.violations inst big in
  Alcotest.(check bool) "demand exceeded reported" true
    (List.exists
       (function
         | Allocation.Demand_exceeded { commodity = 0; _ } -> true
         | _ -> false)
       vs);
  Alcotest.(check bool) "link overload reported" true
    (List.exists
       (function Allocation.Link_overload _ -> true | _ -> false)
       vs);
  Alcotest.(check bool) "is_feasible agrees" false (Allocation.is_feasible inst big)

let prop_trim_feasible =
  QCheck.Test.make ~name:"trim is a feasibility projection" ~count:25
    QCheck.(int_bound 1000)
    (fun seed ->
      let inst = Helpers.iridium_instance ~lambda:20.0 ~warmup:20.0 () in
      let rng = Rng.create seed in
      let alloc = Allocation.zeros inst in
      Array.iter
        (fun rates ->
          Array.iteri (fun p _ -> rates.(p) <- Rng.uniform rng (-50.0) 300.0) rates)
        alloc;
      Allocation.is_feasible inst (Allocation.trim inst alloc))

let suite =
  [ Alcotest.test_case "instance construction" `Quick test_instance_construction;
    Alcotest.test_case "zeros allocation" `Quick test_zeros_allocation;
    Alcotest.test_case "scale to demand" `Quick test_scale_to_demand;
    Alcotest.test_case "trim always feasible" `Quick test_trim_always_feasible;
    Alcotest.test_case "trim keeps feasible" `Quick test_trim_keeps_feasible_allocation;
    Alcotest.test_case "lp optimality" `Quick test_lp_optimality_vs_heuristics;
    Alcotest.test_case "lp light load" `Quick test_lp_light_load_satisfies_all;
    Alcotest.test_case "mlu routes all" `Quick test_mlu_routes_all_demand;
    Alcotest.test_case "mlu vs throughput" `Quick test_mlu_below_throughput_mlu;
    Alcotest.test_case "per-commodity ratio" `Quick test_per_commodity_ratio;
    Alcotest.test_case "node caps respected" `Quick test_node_caps_respected;
    Alcotest.test_case "instance caps bind" `Quick test_instance_caps_bind;
    Alcotest.test_case "violations order" `Quick test_violations_order;
    Alcotest.test_case "restrict to valid" `Quick test_carryover_drops_invalid_paths;
    Alcotest.test_case "verify mode all objectives" `Quick test_verify_mode_all_objectives;
    Alcotest.test_case "violations empty on lp" `Quick test_violations_empty_on_lp;
    Alcotest.test_case "violations structured" `Quick test_violations_structured;
    QCheck_alcotest.to_alcotest prop_trim_feasible;
    Alcotest.test_case "rebuild on degraded snapshot" `Quick
      test_rebuild_on_degraded_snapshot;
    Alcotest.test_case "verify raises on solver failure" `Quick
      test_verify_raises_on_solver_failure;
    Alcotest.test_case "lp allocation" `Quick test_lp_allocation;
    Alcotest.test_case "make on another snapshot" `Quick test_make_other_snapshot;
    Alcotest.test_case "of ratios" `Quick test_of_ratios ]
