(* Tests for Sate_traffic: flow classes, Poisson generator, demand
   aggregation. *)

module Flow_class = Sate_traffic.Flow_class
module Generator = Sate_traffic.Generator
module Demand = Sate_traffic.Demand
module Volume = Sate_pruning.Volume
module Builder = Sate_topology.Builder
module Constellation = Sate_orbit.Constellation
module Rng = Sate_util.Rng

let test_flow_class_parameters () =
  Alcotest.(check (float 1e-9)) "voice 64 kbps" 0.064 (Flow_class.demand_mbps Flow_class.Voice);
  Alcotest.(check (float 1e-9)) "video 8 mbps" 8.0 (Flow_class.demand_mbps Flow_class.Video);
  Alcotest.(check (float 1e-9)) "file 50 mbps" 50.0
    (Flow_class.demand_mbps Flow_class.File_transfer);
  let lo, hi = Flow_class.duration_range_s Flow_class.Voice in
  Alcotest.(check (float 0.0)) "voice min 1 min" 60.0 lo;
  Alcotest.(check (float 0.0)) "voice max 10 min" 600.0 hi

let test_flow_class_durations_in_range () =
  let rng = Rng.create 1 in
  List.iter
    (fun cls ->
      let lo, hi = Flow_class.duration_range_s cls in
      for _ = 1 to 500 do
        let d = Flow_class.sample_duration_s cls rng in
        Alcotest.(check bool) "duration in range" true (d >= lo && d <= hi)
      done)
    Flow_class.all

let test_flow_class_mixture () =
  let rng = Rng.create 2 in
  let counts = Hashtbl.create 3 in
  for _ = 1 to 10_000 do
    let c = Flow_class.sample_class rng in
    Hashtbl.replace counts c (1 + Option.value ~default:0 (Hashtbl.find_opt counts c))
  done;
  let frac c =
    float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts c)) /. 10_000.0
  in
  Alcotest.(check bool) "voice ~60%" true (Float.abs (frac Flow_class.Voice -. 0.6) < 0.03);
  Alcotest.(check bool) "video ~30%" true (Float.abs (frac Flow_class.Video -. 0.3) < 0.03)

let test_generator_arrival_rate () =
  let gen = Generator.create ~lambda:50.0 () in
  Generator.advance gen ~to_s:10.0 ;
  (* All sampled durations are >= 60 s, so nothing expires in 10 s:
     expect close to 500 arrivals. *)
  let n = float_of_int (Generator.active_count gen) in
  Alcotest.(check bool) "around 500 flows" true (n > 380.0 && n < 620.0)

let test_generator_expiry () =
  let gen = Generator.create ~lambda:20.0 () in
  Generator.advance gen ~to_s:10.0;
  let before = Generator.active_count gen in
  (* Fast-forward far beyond the longest file transfer (130 min). *)
  Generator.advance gen ~to_s:9_000.0;
  Generator.set_lambda gen 0.0;
  Generator.advance gen ~to_s:18_000.0;
  Alcotest.(check int) "all initial flows expired" 0
    (List.length
       (List.filter (fun f -> f.Generator.start_s < 10.0) (Generator.active_flows gen)));
  Alcotest.(check bool) "flows existed before" true (before > 0)

let test_generator_monotonic_time () =
  let gen = Generator.create ~lambda:1.0 () in
  Generator.advance gen ~to_s:5.0;
  Alcotest.check_raises "backwards time"
    (Invalid_argument "Generator.advance: time must be non-decreasing") (fun () ->
      Generator.advance gen ~to_s:1.0)

let test_gateway_flow_fraction () =
  let via_gateway fraction =
    let gen =
      Generator.create
        ~config:{ Generator.default_config with Generator.gateway_flow_fraction = fraction }
        ~lambda:20.0 ()
    in
    Generator.advance gen ~to_s:10.0;
    List.map (fun f -> f.Generator.via_gateway) (Generator.active_flows gen)
  in
  Alcotest.(check bool) "no gateway flows at 0" true
    (List.for_all not (via_gateway 0.0));
  Alcotest.(check bool) "only gateway flows at 1" true
    (List.for_all Fun.id (via_gateway 1.0));
  Alcotest.(check bool) "both kinds at the default" true
    (let v = via_gateway Generator.default_config.Generator.gateway_flow_fraction in
     List.mem true v && List.mem false v)

let test_demand_aggregation () =
  let d = Demand.of_assoc ~num_sats:10 [ (1, 2, 5.0); (1, 2, 3.0); (3, 4, 1.0); (5, 5, 9.0); (6, 7, 0.0) ] in
  Alcotest.(check int) "two entries (self and zero dropped)" 2 (Demand.num_entries d);
  Alcotest.(check (float 1e-9)) "aggregated" 8.0 (Demand.find d ~src:1 ~dst:2);
  Alcotest.(check (float 1e-9)) "absent" 0.0 (Demand.find d ~src:2 ~dst:1);
  Alcotest.(check (float 1e-9)) "total" 9.0 (Demand.total_demand d);
  Alcotest.(check (list (pair int int))) "pairs" [ (1, 2); (3, 4) ]
    (List.sort compare (Demand.pairs d))

let test_demand_volumes () =
  let d = Demand.of_assoc ~num_sats:100 [ (1, 2, 5.0) ] in
  Alcotest.(check int) "sparse one entry" 16 (Demand.sparse_volume_bytes d);
  (* Table 1's dense matrix: 100 x 100 4-byte floats. *)
  let v =
    Volume.measure ~num_sats:100 ~k:1 ~avg_path_hops:1.0 ~demand:d ~active_paths:0
      ~active_path_hops:0
  in
  Alcotest.(check (float 1e-15)) "dense 100x100x4" 40_000e-9 v.Volume.original_traffic_gb;
  Alcotest.(check bool) "pruning wins" true
    (v.Volume.pruned_traffic_gb < v.Volume.original_traffic_gb)

let test_demand_at_snapshot () =
  let c = Constellation.iridium in
  let b = Builder.create c in
  let snap = Builder.snapshot b ~time_s:0.0 in
  let gen = Generator.create ~lambda:10.0 () in
  Generator.advance gen ~to_s:30.0;
  let demand, up, down = Generator.demand_at gen snap in
  Alcotest.(check bool) "entries exist" true (Demand.num_entries demand > 0);
  Array.iter
    (fun (e : Demand.entry) ->
      Alcotest.(check bool) "src in range" true (e.Demand.src >= 0 && e.Demand.src < 66);
      Alcotest.(check bool) "dst in range" true (e.Demand.dst >= 0 && e.Demand.dst < 66);
      Alcotest.(check bool) "src <> dst" true (e.Demand.src <> e.Demand.dst);
      Alcotest.(check bool) "demand positive" true (e.Demand.demand_mbps > 0.0);
      (* Per-connection clamp: no single flow above 50 Mbps, but
         aggregates may exceed it; demand is at least one voice flow. *)
      Alcotest.(check bool) "demand at least 64 kbps" true (e.Demand.demand_mbps >= 0.064))
    demand.Demand.entries;
  let caps_ok caps = Array.for_all (fun c -> c >= 0.0) caps in
  Alcotest.(check bool) "up caps nonneg" true (caps_ok up);
  Alcotest.(check bool) "down caps nonneg" true (caps_ok down);
  (* Total uplink capacity is 50 Mbps per active src connection. *)
  let flows = Generator.active_count gen in
  let total_up = Array.fold_left ( +. ) 0.0 up in
  Alcotest.(check bool) "uplink caps bounded by connections" true
    (total_up <= float_of_int flows *. 50.0 +. 1e-6)

let test_demand_deterministic () =
  let run () =
    let c = Constellation.iridium in
    let b = Builder.create c in
    let snap = Builder.snapshot b ~time_s:0.0 in
    let gen = Generator.create ~lambda:5.0 () in
    Generator.advance gen ~to_s:20.0;
    let d, _, _ = Generator.demand_at gen snap in
    (Demand.num_entries d, Demand.total_demand d)
  in
  Alcotest.(check bool) "two runs identical" true (run () = run ())

let prop_demand_of_assoc_total =
  QCheck.Test.make ~name:"of_assoc preserves positive off-diagonal mass" ~count:200
    QCheck.(list (triple (int_bound 9) (int_bound 9) (float_bound_inclusive 10.0)))
    (fun assoc ->
      let d = Demand.of_assoc ~num_sats:10 assoc in
      let expected =
        List.fold_left
          (fun acc (s, t, v) -> if s <> t && v > 0.0 then acc +. v else acc)
          0.0 assoc
      in
      Float.abs (Demand.total_demand d -. expected) < 1e-6)

let suite =
  [ Alcotest.test_case "flow class parameters" `Quick test_flow_class_parameters;
    Alcotest.test_case "durations in range" `Quick test_flow_class_durations_in_range;
    Alcotest.test_case "class mixture" `Quick test_flow_class_mixture;
    Alcotest.test_case "arrival rate" `Quick test_generator_arrival_rate;
    Alcotest.test_case "expiry" `Quick test_generator_expiry;
    Alcotest.test_case "monotonic time" `Quick test_generator_monotonic_time;
    Alcotest.test_case "demand aggregation" `Quick test_demand_aggregation;
    Alcotest.test_case "demand volumes" `Quick test_demand_volumes;
    Alcotest.test_case "demand at snapshot" `Quick test_demand_at_snapshot;
    Alcotest.test_case "demand deterministic" `Quick test_demand_deterministic;
    QCheck_alcotest.to_alcotest prop_demand_of_assoc_total;
    Alcotest.test_case "gateway flow fraction" `Quick test_gateway_flow_fraction ]
