(* Correctness tooling: finite-difference gradient checking
   (Sate_check.Grad_check), LP certificate verification
   (Sate_lp.Certificate; Lp_solver ~verify:true is tested in
   test_te), allocation
   invariant auditing (Allocation.violations), and the online harness
   debug mode. *)

module Grad_check = Sate_check.Grad_check
module Certificate = Sate_lp.Certificate
module Simplex = Sate_lp.Simplex
module Lp_solver = Sate_te.Lp_solver
module Allocation = Sate_te.Allocation
module Scenario = Sate_core.Scenario
module Online = Sate_core.Online
module Method = Sate_core.Method
module A = Sate_nn.Autodiff
open Sate_tensor

let check_all_passed results =
  Alcotest.(check int) "no gradient failures" 0
    (List.length (Grad_check.failures results));
  List.iter
    (fun r ->
      Alcotest.(check bool) (Grad_check.result_to_string r) true
        r.Grad_check.passed)
    results

(* Acceptance criterion: every Autodiff op matches central differences
   at relative error < 1e-4 (the checker's default tolerance). *)
let test_all_ops () =
  let results = Grad_check.all_ops () in
  Alcotest.(check bool) "covers the op set" true (List.length results >= 20);
  check_all_passed results;
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (r.Grad_check.name ^ " below default tol")
        true
        (r.Grad_check.max_rel_err < Grad_check.default_tol))
    results

let test_all_ops_deterministic () =
  Alcotest.(check bool) "same seed, same report" true
    (Grad_check.all_ops ~seed:3 () = Grad_check.all_ops ~seed:3 ())

let test_gat_layer_attention () = check_all_passed (Grad_check.gat_layer ())

let test_gat_layer_mean () =
  check_all_passed (Grad_check.gat_layer ~attention:false ())

let test_catches_broken_backward () =
  (* Sabotage the square adjoint: claim d(x^2)/dx = x instead of 2x.
     The node's [back] is mutable precisely so a test can do this. *)
  let build x =
    let y = A.square x in
    y.A.back <-
      (fun () -> x.A.grad <- Tensor.add x.A.grad (Tensor.mul x.A.value y.A.grad));
    A.sum y
  in
  let x0 = Tensor.of_array ~rows:2 ~cols:2 [| 0.5; -1.0; 2.0; 1.5 |] in
  let r = Grad_check.check ~name:"broken square" ~build x0 in
  Alcotest.(check bool) "broken backward flagged" false r.Grad_check.passed;
  Alcotest.(check bool) "error is gross" true (r.Grad_check.max_rel_err > 0.1)

let lp_c = [| 3.0; 2.0 |]

let lp_constraints =
  [ { Simplex.terms = [| (0, 1.0); (1, 1.0) |]; sense = Simplex.Le; rhs = 4.0 };
    { Simplex.terms = [| (0, 1.0); (1, 3.0) |]; sense = Simplex.Le; rhs = 6.0 } ]

let test_certificate_accepts_valid () =
  let outcome = Simplex.solve ~c:lp_c ~constraints:lp_constraints () in
  (match Certificate.check ~c:lp_c ~constraints:lp_constraints outcome with
  | Some report when not (Certificate.valid report) ->
      Alcotest.fail (Certificate.report_to_string report)
  | Some _ | None -> ());
  match outcome with
  | Simplex.Optimal { objective; _ } ->
      Alcotest.(check (float 1e-6)) "objective" 12.0 objective
  | _ -> Alcotest.fail "expected Optimal"

let test_certificate_rejects_tampered_solution () =
  (* x = 5 violates x + y <= 4 and changes the objective. *)
  let outcome =
    Simplex.Optimal { objective = 12.0; solution = [| 5.0; 0.0 |] }
  in
  match Certificate.check ~c:lp_c ~constraints:lp_constraints outcome with
  | None -> Alcotest.fail "expected a report"
  | Some report ->
      Alcotest.(check bool) "invalid" false (Certificate.valid report);
      Alcotest.(check bool) "constraint violation found" true
        (List.exists
           (function
             | Certificate.Constraint_violated { index = 0; excess; _ } ->
                 Float.abs (excess -. 1.0) < 1e-9
             | _ -> false)
           report.Certificate.violations);
      Alcotest.(check bool) "objective mismatch found" true
        (List.exists
           (function Certificate.Objective_mismatch _ -> true | _ -> false)
           report.Certificate.violations);
      Alcotest.(check (float 1e-9)) "recomputed objective" 15.0
        report.Certificate.recomputed_objective

let test_certificate_rejects_negative_variable () =
  let outcome =
    Simplex.Optimal { objective = -3.0; solution = [| -1.0; 0.0 |] }
  in
  match Certificate.check ~c:lp_c ~constraints:lp_constraints outcome with
  | None -> Alcotest.fail "expected a report"
  | Some report ->
      Alcotest.(check bool) "invalid" false (Certificate.valid report);
      Alcotest.(check bool) "negative variable found" true
        (List.exists
           (function
             | Certificate.Negative_variable { index = 0; _ } -> true
             | _ -> false)
           report.Certificate.violations)

let test_certificate_ignores_non_optimal () =
  Alcotest.(check bool) "no report for Infeasible" true
    (Certificate.check ~c:lp_c ~constraints:lp_constraints Simplex.Infeasible
    = None)

let test_invariant_feasible () =
  let inst = Helpers.iridium_instance () in
  let lp = Lp_solver.solve inst in
  let vs = Allocation.violations inst lp in
  Alcotest.(check int) "no violations" 0 (List.length vs);
  Alcotest.(check (list string)) "no violation messages" []
    (List.map Allocation.violation_to_string vs);
  Alcotest.(check bool) "feasible" true (Allocation.is_feasible inst lp)

let test_invariant_flags_corruption () =
  let inst = Helpers.iridium_instance () in
  let alloc = Lp_solver.solve inst in
  alloc.(0).(0) <- -2.0;
  let vs = Allocation.violations inst alloc in
  Alcotest.(check bool) "violations reported" true (vs <> []);
  List.iter
    (fun v ->
      Alcotest.(check bool) "message names the violation" true
        (String.length (Allocation.violation_to_string v) > 0))
    vs;
  Alcotest.(check bool) "infeasible" false (Allocation.is_feasible inst alloc)

(* Acceptance criterion: the online harness, which audits every
   allocation it serves or scores, reports zero invariant violations on
   a quickstart-style scenario. *)
let test_online_debug_zero_violations () =
  let s =
    Scenario.create
      ~config:
        { Scenario.default_config with Scenario.lambda = 5.0; warmup_s = 20.0 }
      ()
  in
  let r =
    Online.evaluate ~latency_override_ms:1.0 ~duration_s:5.0 s
      Method.Lp
  in
  Alcotest.(check int) "zero violations" 0 r.Online.violations;
  Alcotest.(check bool) "harness actually ran" true
    (List.length r.Online.per_tick = 5 && r.Online.recomputations > 0)

let suite =
  [ Alcotest.test_case "grad all ops" `Quick test_all_ops;
    Alcotest.test_case "grad deterministic" `Quick test_all_ops_deterministic;
    Alcotest.test_case "grad gat attention" `Quick test_gat_layer_attention;
    Alcotest.test_case "grad gat mean" `Quick test_gat_layer_mean;
    Alcotest.test_case "grad catches broken backward" `Quick
      test_catches_broken_backward;
    Alcotest.test_case "certificate accepts valid" `Quick
      test_certificate_accepts_valid;
    Alcotest.test_case "certificate rejects tampering" `Quick
      test_certificate_rejects_tampered_solution;
    Alcotest.test_case "certificate rejects negative" `Quick
      test_certificate_rejects_negative_variable;
    Alcotest.test_case "certificate skips non-optimal" `Quick
      test_certificate_ignores_non_optimal;
    Alcotest.test_case "invariant feasible" `Quick test_invariant_feasible;
    Alcotest.test_case "invariant flags corruption" `Quick
      test_invariant_flags_corruption;
    Alcotest.test_case "online debug zero violations" `Quick
      test_online_debug_zero_violations ]
