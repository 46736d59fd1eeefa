(* Tests for the extension surface: fairness objectives (Eq. 3 /
   Appendix H.4) and fine-tuning (Sec. 7). *)

module Method = Sate_core.Method
module Ecmp_wf = Sate_baselines.Ecmp_wf
module Lp_solver = Sate_te.Lp_solver
module Allocation = Sate_te.Allocation
module Instance = Sate_te.Instance
module Shell = Sate_orbit.Shell
module Geo = Sate_geo.Geo
module Model = Sate_gnn.Model
module Trainer = Sate_gnn.Trainer
module Stats = Sate_util.Stats

(* --- Fairness: max-min filling and log-utility LP --- *)

let test_max_min_feasible () =
  let inst = Helpers.congested_instance () in
  let alloc = Method.solve Method.Max_min inst in
  Alcotest.(check bool) "feasible" true (Allocation.is_feasible inst alloc)

let test_max_min_reduces_starvation () =
  let inst = Helpers.congested_instance () in
  let starved a =
    Allocation.per_commodity_ratio inst a
    |> Array.fold_left (fun acc r -> if r < 0.05 then acc + 1 else acc) 0
  in
  let mm = starved (Method.solve Method.Max_min inst) in
  let bp = starved (Sate_baselines.Satellite_routing.solve inst) in
  Alcotest.(check bool)
    (Printf.sprintf "max-min starves fewer flows (%d <= %d)" mm bp)
    true (mm <= bp)

let test_max_min_uses_all_paths () =
  (* Unlike ECMP, max-min may spread onto longer candidate paths. *)
  let inst = Helpers.congested_instance () in
  let mm = Allocation.total_flow (Method.solve Method.Max_min inst) in
  let ecmp = Allocation.total_flow (Ecmp_wf.solve inst) in
  Alcotest.(check bool) "all-path filling carries at least min-hop filling" true
    (mm >= ecmp *. 0.8)

(* Log-utility LPs double the variable count: keep the instance small. *)
let utility_instance () = Helpers.iridium_instance ~lambda:12.0 ~warmup:25.0 ()

let test_log_utility_feasible_and_fair () =
  let inst = utility_instance () in
  let alloc, utility = Lp_solver.solve_with_value ~objective:Lp_solver.Max_log_utility inst in
  Alcotest.(check bool) "feasible" true (Allocation.is_feasible inst alloc);
  Alcotest.(check bool) "finite utility" true (Float.is_finite utility);
  (* Soft fairness: compared to raw throughput maximisation, the
     bottom decile of flows must not be worse. *)
  let p10 a = Stats.percentile (Allocation.per_commodity_ratio inst a) 10.0 in
  let thr = Lp_solver.solve inst in
  Alcotest.(check bool)
    (Printf.sprintf "log utility lifts the poorest flows (%.3f >= %.3f)"
       (p10 alloc) (p10 thr))
    true
    (p10 alloc >= p10 thr -. 1e-6)

let test_log_utility_below_throughput_optimum () =
  let inst = utility_instance () in
  let thr = Allocation.total_flow (Lp_solver.solve inst) in
  let util = Allocation.total_flow (Lp_solver.solve ~objective:Lp_solver.Max_log_utility inst) in
  Alcotest.(check bool) "fairness costs at most the optimum" true (util <= thr +. 1e-6)

(* --- Fine-tuning --- *)

let test_fine_tune_improves_on_target () =
  let samples = List.map Trainer.make_sample (Helpers.instance_series ~count:3 ~seed:55 ()) in
  let model = Model.create ~seed:14 () in
  ignore (Trainer.train ~epochs:10 model samples);
  let before = Trainer.evaluate model samples in
  ignore (Trainer.fine_tune ~epochs:8 model samples);
  let after = Trainer.evaluate model samples in
  Alcotest.(check bool)
    (Printf.sprintf "fine-tune does not regress (%.3f -> %.3f)" before after)
    true
    (after >= before -. 0.05)

let suite =
  [ Alcotest.test_case "max-min feasible" `Quick test_max_min_feasible;
    Alcotest.test_case "max-min starvation" `Quick test_max_min_reduces_starvation;
    Alcotest.test_case "max-min vs ecmp" `Quick test_max_min_uses_all_paths;
    Alcotest.test_case "log utility fair" `Quick test_log_utility_feasible_and_fair;
    Alcotest.test_case "log utility bounded" `Quick test_log_utility_below_throughput_optimum;
    Alcotest.test_case "fine-tune" `Slow test_fine_tune_improves_on_target ]
