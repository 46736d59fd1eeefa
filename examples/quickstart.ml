(* Quickstart: build a constellation, generate traffic, train a small
   SaTE model, and compare its allocation against the exact LP optimum
   and the heuristic baselines.

   Run with:  dune exec examples/quickstart.exe *)

module Scenario = Sate_core.Scenario
module Method = Sate_core.Method
module Model = Sate_gnn.Model
module Trainer = Sate_gnn.Trainer
module Allocation = Sate_te.Allocation
module Instance = Sate_te.Instance

(* Result of [f ()] and its wall-clock time in seconds. *)
let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let () =
  print_endline "SaTE quickstart: Iridium constellation, 8 flows/s";
  (* 1. A scenario bundles the orbital simulator, topology builder,
     traffic generator, and the incrementally maintained path store. *)
  let scenario =
    Scenario.create
      ~config:
        { Scenario.default_config with Scenario.scale = 66; lambda = 8.0 }
      ()
  in
  (* 2. TE instances: topology snapshot + traffic matrix + candidate
     paths, sampled as the satellites move and flows arrive/expire. *)
  let train_instances =
    List.init 4 (fun i -> Scenario.instance_at scenario ~time_s:(float_of_int i *. 8.0))
  in
  let test_instance = Scenario.instance_at scenario ~time_s:60.0 in
  Printf.printf "test instance: %d commodities, %d candidate paths, %.0f Mbps demand\n%!"
    (Instance.num_commodities test_instance)
    (Instance.num_paths test_instance)
    (Instance.total_demand test_instance);
  (* 3. Train SaTE on LP-labelled samples (seconds at this scale). *)
  print_endline "training SaTE (30 epochs)...";
  let model = Model.create ~seed:1 () in
  let samples = List.map Trainer.make_sample train_instances in
  let report, secs = timed (fun () -> Trainer.train ~epochs:30 model samples) in
  Printf.printf "trained in %.1f s (loss %.3f -> %.3f)\n%!" secs
    report.Trainer.losses.(0)
    report.Trainer.losses.(Array.length report.Trainer.losses - 1);
  (* 4. Compare methods on the unseen instance. *)
  List.iter
    (fun m ->
      let alloc, secs = timed (fun () -> Method.solve m test_instance) in
      Printf.printf "%-18s satisfied=%5.1f%%  latency=%8.2f ms  feasible=%b\n%!"
        (Method.name m)
        (100.0 *. Allocation.satisfied_ratio test_instance alloc)
        (secs *. 1000.0)
        (Allocation.is_feasible test_instance alloc))
    [ Method.Lp; Method.Sate model; Method.Pop 4; Method.Ecmp_wf;
      Method.Satellite_routing ]
