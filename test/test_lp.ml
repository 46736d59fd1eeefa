(* Tests for Sate_lp.Simplex. *)

open Sate_lp.Simplex
module Certificate = Sate_lp.Certificate

(* A row from its dense coefficients; zeros are dropped, as a
   formulation does. *)
let row dense sense rhs =
  let terms = ref [] in
  Array.iteri (fun j a -> if a <> 0.0 then terms := (j, a) :: !terms) dense;
  { terms = Array.of_list (List.rev !terms); sense; rhs }

(* Every Optimal outcome in this file round-trips through the
   independent certificate checker. *)
let certify ~c ~constraints outcome =
  match Certificate.check ~c ~constraints outcome with
  | None -> Alcotest.fail "certificate: expected a report for Optimal"
  | Some report ->
      if not (Certificate.valid report) then
        Alcotest.fail (Certificate.report_to_string report)

let solve_opt ?maximize ?max_iters ~c ~constraints () =
  match solve ?maximize ?max_iters ~c ~constraints () with
  | Optimal { objective; solution } as outcome ->
      certify ~c ~constraints outcome;
      (objective, solution)
  | Infeasible -> Alcotest.fail "unexpected infeasible"
  | Unbounded -> Alcotest.fail "unexpected unbounded"
  | Iteration_limit -> Alcotest.fail "unexpected iteration limit"

let test_max_le () =
  (* max 3x + 2y, x + y <= 4, x + 3y <= 6: optimum (4, 0) = 12. *)
  let obj, sol =
    solve_opt ~c:[| 3.0; 2.0 |]
      ~constraints:
        [ row [| 1.0; 1.0 |] Le 4.0;
          row [| 1.0; 3.0 |] Le 6.0 ]
      ()
  in
  Alcotest.(check (float 1e-6)) "objective" 12.0 obj;
  Alcotest.(check (float 1e-6)) "x" 4.0 sol.(0);
  Alcotest.(check (float 1e-6)) "y" 0.0 sol.(1)

let test_min_ge_eq () =
  (* min x + y, x + 2y >= 4, 3x + y = 6: optimum x=1.6 y=1.2, obj 2.8. *)
  let obj, sol =
    solve_opt ~maximize:false ~c:[| 1.0; 1.0 |]
      ~constraints:
        [ row [| 1.0; 2.0 |] Ge 4.0;
          row [| 3.0; 1.0 |] Eq 6.0 ]
      ()
  in
  Alcotest.(check (float 1e-6)) "objective" 2.8 obj;
  Alcotest.(check (float 1e-6)) "x" 1.6 sol.(0);
  Alcotest.(check (float 1e-6)) "y" 1.2 sol.(1)

let test_infeasible () =
  match
    solve ~c:[| 1.0 |]
      ~constraints:
        [ row [| 1.0 |] Le 1.0;
          row [| 1.0 |] Ge 2.0 ]
      ()
  with
  | Infeasible -> ()
  | Optimal _ | Unbounded | Iteration_limit -> Alcotest.fail "expected infeasible"

let test_unbounded () =
  match
    solve ~c:[| 1.0 |]
      ~constraints:[ row [| -1.0 |] Le 0.0 ]
      ()
  with
  | Unbounded -> ()
  | Optimal _ | Infeasible | Iteration_limit -> Alcotest.fail "expected unbounded"

let test_negative_rhs_normalisation () =
  (* x >= 2 written as -x <= -2; minimize x -> 2. *)
  let obj, _ =
    solve_opt ~maximize:false ~c:[| 1.0 |]
      ~constraints:[ row [| -1.0 |] Le (-2.0) ]
      ()
  in
  Alcotest.(check (float 1e-6)) "objective" 2.0 obj

let test_degenerate () =
  (* Redundant constraints with a tie: must still terminate. *)
  let obj, _ =
    solve_opt ~c:[| 1.0; 1.0 |]
      ~constraints:
        [ row [| 1.0; 0.0 |] Le 1.0;
          row [| 1.0; 0.0 |] Le 1.0;
          row [| 0.0; 1.0 |] Le 1.0;
          row [| 1.0; 1.0 |] Le 2.0 ]
      ()
  in
  Alcotest.(check (float 1e-6)) "objective" 2.0 obj

let test_degenerate_bland_fallback () =
  (* Duplicated rows make the basis degenerate; the tiny iteration
     budget drives the solver past [bland_after = max_iters / 2], so
     the final pivots run under Bland's rule and must still reach the
     optimum x = 2, z = 2. *)
  let obj, sol =
    solve_opt ~max_iters:8 ~c:[| 2.0; 3.0; 1.5 |]
      ~constraints:
        [ row [| 1.0; 1.0; 0.0 |] Le 2.0;
          row [| 1.0; 1.0; 0.0 |] Le 2.0;
          row [| 0.0; 1.0; 1.0 |] Le 2.0 ]
      ()
  in
  Alcotest.(check (float 1e-6)) "objective" 7.0 obj;
  Alcotest.(check (float 1e-6)) "x" 2.0 sol.(0);
  Alcotest.(check (float 1e-6)) "z" 2.0 sol.(2)

let test_eq_only_infeasible () =
  (* Contradictory equalities: Big-M leaves an artificial variable
     basic at a nonzero level. *)
  match
    solve ~c:[| 1.0; 1.0 |]
      ~constraints:
        [ row [| 1.0; 1.0 |] Eq 1.0;
          row [| 1.0; 1.0 |] Eq 2.0 ]
      ()
  with
  | Infeasible -> ()
  | Optimal _ | Unbounded | Iteration_limit -> Alcotest.fail "expected infeasible"

let test_zero_objective () =
  let obj, _ =
    solve_opt ~c:[| 0.0; 0.0 |]
      ~constraints:[ row [| 1.0; 1.0 |] Le 5.0 ]
      ()
  in
  Alcotest.(check (float 1e-6)) "objective" 0.0 obj

let test_dimension_mismatch () =
  List.iter
    (fun j ->
      Alcotest.check_raises (Printf.sprintf "index %d" j)
        (Invalid_argument "Simplex.solve: term index out of range or out of order")
        (fun () ->
          ignore
            (solve ~c:[| 1.0; 2.0 |]
               ~constraints:[ { terms = [| (j, 1.0) |]; sense = Le; rhs = 1.0 } ]
               ())))
    [ -1; 2 ]

let test_term_order () =
  List.iter
    (fun terms ->
      Alcotest.check_raises "out of order"
        (Invalid_argument "Simplex.solve: term index out of range or out of order")
        (fun () ->
          ignore
            (solve ~c:[| 1.0; 2.0; 3.0 |]
               ~constraints:
                 [ row [| 1.0; 1.0; 1.0 |] Le 3.0; { terms; sense = Le; rhs = 1.0 } ]
               ())))
    [ [| (1, 1.0); (0, 1.0) |]; [| (0, 1.0); (2, 1.0); (2, 1.0) |] ]

(* Random LPs: the returned solution must satisfy every constraint and
   be at least as good as the origin when the origin is feasible. *)
let prop_solution_feasible =
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 4 in
      let* m = int_range 1 5 in
      let* c = array_repeat n (float_range (-5.0) 5.0) in
      let* rows = array_repeat m (array_repeat n (float_range (-3.0) 3.0)) in
      let* rhs = array_repeat m (float_range 0.5 10.0) in
      return (c, rows, rhs))
  in
  QCheck.Test.make ~name:"simplex solution satisfies constraints" ~count:200
    (QCheck.make gen)
    (fun (c, rows, rhs) ->
      let constraints =
        Array.to_list
          (Array.mapi (fun i dense -> row dense Le rhs.(i)) rows)
      in
      match solve ~c ~constraints () with
      | Optimal { solution; objective } as outcome ->
          let certified =
            match Certificate.check ~c ~constraints outcome with
            | Some report -> Certificate.valid report
            | None -> false
          in
          let ok_constraints =
            Array.for_all2
              (fun coeffs b ->
                let lhs = ref 0.0 in
                Array.iteri (fun j a -> lhs := !lhs +. (a *. solution.(j))) coeffs;
                !lhs <= b +. 1e-5)
              rows rhs
          in
          let nonneg = Array.for_all (fun x -> x >= -1e-9) solution in
          (* rhs > 0 so x = 0 is feasible: optimum must be >= 0. *)
          certified && ok_constraints && nonneg && objective >= -1e-6
      | Unbounded -> true (* possible with negative row coefficients *)
      | Infeasible -> false (* impossible: origin is feasible *)
      | Iteration_limit -> false)

(* Outcomes compared bit for bit, signed zeros included. *)
let same_outcome a b =
  let bits_equal x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
  match (a, b) with
  | Optimal x, Optimal y ->
      bits_equal x.objective y.objective && Array.for_all2 bits_equal x.solution y.solution
  | Infeasible, Infeasible | Unbounded, Unbounded | Iteration_limit, Iteration_limit ->
      true
  | _ -> false

(* Random LPs with every row sense and signed right-hand sides. *)
let gen_lp ~coeff ~rhs =
  QCheck.Gen.(
    let* n = int_range 1 10 in
    let* m = int_range 1 10 in
    let* maximize = bool in
    let* c = array_repeat n coeff in
    let* rows = list_repeat m (triple (array_repeat n coeff) (oneofl [ Le; Ge; Eq ]) rhs) in
    return (maximize, c, List.map (fun (dense, sense, b) -> row dense sense b) rows))

let real_coeff = QCheck.Gen.(frequency [ (1, return 0.0); (3, float_range (-5.0) 5.0) ])

(* Small integers: many exactly tied reduced costs and ratios, and
   degenerate (zero) right-hand sides. *)
let int_coeff lo hi = QCheck.Gen.(map float_of_int (int_range lo hi))

(* The ties the compact tableau could break differently, between
   columns whose slots and variable indices are in different orders,
   are rare: it takes a few thousand cases to meet them. *)
let prop_matches_full_tableau name ?(max_iters = QCheck.Gen.return None) gen =
  QCheck.Test.make ~name ~count:3000
    (QCheck.make QCheck.Gen.(pair gen max_iters))
    (fun ((maximize, c, constraints), max_iters) ->
      same_outcome
        (solve ~maximize ?max_iters ~c ~constraints ())
        (Full_tableau.solve ~maximize ?max_iters ~c ~constraints ()))

let prop_matches_full_tableau_real =
  prop_matches_full_tableau "matches full tableau"
    (gen_lp ~coeff:real_coeff ~rhs:(QCheck.Gen.float_range (-10.0) 10.0))

let prop_matches_full_tableau_ties =
  prop_matches_full_tableau "matches full tableau on ties"
    (gen_lp ~coeff:(int_coeff 0 2) ~rhs:(int_coeff (-1) 4))

(* A small iteration limit hands the pivots to Bland's rule, or stops
   them. *)
let prop_matches_full_tableau_bland =
  prop_matches_full_tableau "matches full tableau under bland"
    ~max_iters:QCheck.Gen.(map Option.some (int_range 1 12))
    (gen_lp ~coeff:(int_coeff 0 2) ~rhs:(int_coeff (-1) 4))

(* Klee-Minty cube: Dantzig's rule visits all 2^n vertices, so
   variables leave the basis and enter it again.  max sum_j 2^(n-j) x_j
   s.t. sum_(j<i) 2^(i-j+1) x_j + x_i <= 5^i; the optimum is
   x_n = 5^n. *)
let test_klee_minty () =
  let n = 6 in
  let pow b e = Float.of_int (int_of_float (Float.pow b (float_of_int e))) in
  let c = Array.init n (fun j -> pow 2.0 (n - 1 - j)) in
  let constraints =
    List.init n (fun i ->
        row
          (Array.init n (fun j ->
               if j < i then pow 2.0 (i - j + 1) else if j = i then 1.0 else 0.0))
          Le (pow 5.0 (i + 1)))
  in
  let obj, sol = solve_opt ~c ~constraints () in
  Alcotest.(check (float 0.0)) "objective" (pow 5.0 n) obj;
  Alcotest.(check (array (float 0.0))) "solution"
    (Array.init n (fun j -> if j = n - 1 then pow 5.0 n else 0.0))
    sol;
  Alcotest.(check bool) "same as full tableau" true
    (same_outcome (solve ~c ~constraints ()) (Full_tableau.solve ~c ~constraints ()));
  (* A short pivot budget ends in Iteration_limit, which has no
     certificate.  Bland's rule, from half the budget on, needs fewer
     pivots than Dantzig's 63: 42 is the smallest budget that
     finishes. *)
  List.iter
    (fun max_iters ->
      let outcome = solve ~max_iters ~c ~constraints () in
      Alcotest.(check bool)
        (Printf.sprintf "iteration limit at %d" max_iters)
        true (outcome = Iteration_limit);
      Alcotest.(check bool) "no certificate" true
        (Certificate.check ~c ~constraints outcome = None))
    [ 0; 1; 20; 41 ];
  let obj, _ = solve_opt ~max_iters:42 ~c ~constraints () in
  Alcotest.(check (float 0.0)) "objective at 42" (pow 5.0 n) obj

let test_surplus_enters () =
  (* max x + y, x + y >= 1, x <= 3, y <= 2: optimum (3, 2) = 5, where
     the surplus of the >= row (non-basic at the start) is basic at 4. *)
  let obj, sol =
    solve_opt ~c:[| 1.0; 1.0 |]
      ~constraints:
        [ row [| 1.0; 1.0 |] Ge 1.0; row [| 1.0; 0.0 |] Le 3.0; row [| 0.0; 1.0 |] Le 2.0 ]
      ()
  in
  Alcotest.(check (float 1e-9)) "objective" 5.0 obj;
  Alcotest.(check (array (float 1e-9))) "solution" [| 3.0; 2.0 |] sol

(* No variables: rows without terms are all the tableau holds. *)
let test_empty_rows () =
  let empty sense rhs = { terms = [||]; sense; rhs } in
  (match solve ~c:[||] ~constraints:[ empty Le 1.0; empty Eq 0.0 ] () with
  | Optimal { objective; solution } ->
      Alcotest.(check (float 0.0)) "objective" 0.0 objective;
      Alcotest.(check int) "no solution entries" 0 (Array.length solution)
  | _ -> Alcotest.fail "expected optimal");
  Alcotest.(check bool) "0 >= 1 infeasible" true
    (solve ~c:[||] ~constraints:[ empty Ge 1.0 ] () = Infeasible)

(* No rows: every variable is non-basic and unconstrained above. *)
let test_no_constraints () =
  Alcotest.(check bool) "positive cost unbounded" true
    (solve ~c:[| 0.0; 1.0 |] ~constraints:[] () = Unbounded);
  let obj, sol = solve_opt ~c:[| -1.0; 0.0 |] ~constraints:[] () in
  Alcotest.(check (float 0.0)) "objective" 0.0 obj;
  Alcotest.(check (array (float 0.0))) "solution" [| 0.0; 0.0 |] sol

let suite =
  [ Alcotest.test_case "max with <=" `Quick test_max_le;
    Alcotest.test_case "min with >= and =" `Quick test_min_ge_eq;
    Alcotest.test_case "infeasible" `Quick test_infeasible;
    Alcotest.test_case "unbounded" `Quick test_unbounded;
    Alcotest.test_case "negative rhs" `Quick test_negative_rhs_normalisation;
    Alcotest.test_case "degenerate" `Quick test_degenerate;
    Alcotest.test_case "degenerate bland fallback" `Quick test_degenerate_bland_fallback;
    Alcotest.test_case "eq-only infeasible" `Quick test_eq_only_infeasible;
    Alcotest.test_case "zero objective" `Quick test_zero_objective;
    Alcotest.test_case "dimension mismatch" `Quick test_dimension_mismatch;
    QCheck_alcotest.to_alcotest prop_solution_feasible;
    Alcotest.test_case "term order" `Quick test_term_order;
    QCheck_alcotest.to_alcotest prop_matches_full_tableau_real;
    QCheck_alcotest.to_alcotest prop_matches_full_tableau_ties;
    QCheck_alcotest.to_alcotest prop_matches_full_tableau_bland;
    Alcotest.test_case "klee-minty" `Quick test_klee_minty;
    Alcotest.test_case "surplus enters basis" `Quick test_surplus_enters;
    Alcotest.test_case "empty rows" `Quick test_empty_rows;
    Alcotest.test_case "no constraints" `Quick test_no_constraints ]
