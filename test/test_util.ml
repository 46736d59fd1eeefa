(* Tests for Sate_util: RNG, statistics, heaps, priority queues. *)

module Rng = Sate_util.Rng
module Stats = Sate_util.Stats
module Heap = Sate_util.Heap
module Pqueue = Sate_util.Pqueue

let check_float = Alcotest.(check (float 1e-9))

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different seeds differ" true (Rng.bits64 a <> Rng.bits64 b)

let test_rng_int_range () =
  let rng = Rng.create 7 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 13 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 13)
  done

let test_rng_int_invalid () =
  let rng = Rng.create 7 in
  let exn = Invalid_argument "Rng.int: n must be positive" in
  Alcotest.check_raises "zero" exn (fun () -> ignore (Rng.int rng 0));
  Alcotest.check_raises "negative" exn (fun () -> ignore (Rng.int rng (-3)))

(* With n = 3 * 2^60, plain [bits mod n] maps the top quarter of the
   62-bit draw range back onto [0, 2^60), so values below 2^60 would
   appear with probability 1/2 instead of 1/3.  Rejection sampling must
   bring the fraction back to 1/3. *)
let test_rng_int_unbiased_large_n () =
  let rng = Rng.create 43 in
  let n = 3 * (1 lsl 60) in
  let trials = 4_000 in
  let low = ref 0 in
  for _ = 1 to trials do
    if Rng.int rng n < 1 lsl 60 then incr low
  done;
  let frac = float_of_int !low /. float_of_int trials in
  Alcotest.(check bool) "no modulo bias" true (Float.abs (frac -. (1.0 /. 3.0)) < 0.04)

let test_rng_float_range () =
  let rng = Rng.create 9 in
  for _ = 1 to 10_000 do
    let v = Rng.float rng 2.5 in
    Alcotest.(check bool) "in range" true (v >= 0.0 && v < 2.5)
  done

let test_rng_uniform_mean () =
  let rng = Rng.create 11 in
  let xs = Array.init 50_000 (fun _ -> Rng.uniform rng 2.0 4.0) in
  let m = Stats.mean xs in
  Alcotest.(check bool) "mean near 3" true (Float.abs (m -. 3.0) < 0.02)

let test_rng_normal_moments () =
  let rng = Rng.create 13 in
  let xs = Array.init 50_000 (fun _ -> Rng.normal rng ~mean:5.0 ~std:2.0) in
  Alcotest.(check bool) "mean" true (Float.abs (Stats.mean xs -. 5.0) < 0.05);
  Alcotest.(check bool) "std" true (Float.abs (Stats.std xs -. 2.0) < 0.05)

let test_rng_poisson_mean () =
  let rng = Rng.create 17 in
  let lambda = 6.5 in
  let xs = Array.init 20_000 (fun _ -> float_of_int (Rng.poisson rng ~lambda)) in
  Alcotest.(check bool) "mean near lambda" true
    (Float.abs (Stats.mean xs -. lambda) < 0.1)

let test_rng_poisson_large_lambda () =
  let rng = Rng.create 19 in
  let lambda = 120.0 in
  let xs = Array.init 5_000 (fun _ -> float_of_int (Rng.poisson rng ~lambda)) in
  Alcotest.(check bool) "normal approx mean" true
    (Float.abs (Stats.mean xs -. lambda) < 2.0)

let test_rng_exponential_mean () =
  let rng = Rng.create 23 in
  let xs = Array.init 50_000 (fun _ -> Rng.exponential rng ~rate:0.5) in
  Alcotest.(check bool) "mean near 2" true (Float.abs (Stats.mean xs -. 2.0) < 0.05)

let test_rng_split_independent () =
  let a = Rng.create 31 in
  let b = Rng.split a in
  let xa = Rng.bits64 a and xb = Rng.bits64 b in
  Alcotest.(check bool) "split streams differ" true (xa <> xb)

let test_shuffle_permutation () =
  let rng = Rng.create 37 in
  let a = Array.init 100 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 100 Fun.id) sorted

let test_stats_basics () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  check_float "mean" 2.5 (Stats.mean xs);
  check_float "variance" 1.25 (Stats.variance xs);
  check_float "sum" 10.0 (Stats.sum xs);
  let lo, hi = Stats.min_max xs in
  check_float "min" 1.0 lo;
  check_float "max" 4.0 hi

let test_stats_percentile () =
  let xs = [| 5.0; 1.0; 3.0; 2.0; 4.0 |] in
  check_float "median" 3.0 (Stats.median xs);
  check_float "p0" 1.0 (Stats.percentile xs 0.0);
  check_float "p100" 5.0 (Stats.percentile xs 100.0);
  check_float "p25" 2.0 (Stats.percentile xs 25.0)

let test_stats_percentile_rejects_nan () =
  Alcotest.check_raises "NaN sample"
    (Invalid_argument "Stats.percentile: NaN sample") (fun () ->
      ignore (Stats.percentile [| 1.0; Float.nan; 3.0 |] 50.0));
  Alcotest.check_raises "NaN p"
    (Invalid_argument "Stats.percentile: p out of range") (fun () ->
      ignore (Stats.percentile [| 1.0; 2.0 |] Float.nan));
  Alcotest.check_raises "NaN sample in cdf"
    (Invalid_argument "Stats.cdf_points: NaN sample") (fun () ->
      ignore (Stats.cdf_points [| Float.nan |] 4));
  (* Negative zero and infinities still sort totally under Float.compare. *)
  check_float "neg zero median" 0.0
    (Stats.percentile [| -0.0; 0.0; Float.infinity; Float.neg_infinity; 0.0 |] 50.0)

let test_stats_cv () =
  let xs = [| 2.0; 2.0; 2.0 |] in
  check_float "cv of constant" 0.0 (Stats.coefficient_of_variation xs)

let test_stats_cdf () =
  let xs = Array.init 100 (fun i -> float_of_int i) in
  let pts = Stats.cdf_points xs 10 in
  Alcotest.(check int) "10 points" 10 (List.length pts);
  let _, last_frac = List.nth pts 9 in
  check_float "last fraction" 1.0 last_frac

let test_heap_ordering () =
  let h = Heap.create () in
  List.iter (fun p -> Heap.push h p p) [ 5.0; 1.0; 3.0; 2.0; 4.0 ];
  let order = List.init 5 (fun _ -> fst (Option.get (Heap.pop h))) in
  Alcotest.(check (list (float 0.0))) "sorted" [ 1.0; 2.0; 3.0; 4.0; 5.0 ] order;
  Alcotest.(check bool) "empty" true (Heap.is_empty h)

let test_heap_peek () =
  let h = Heap.create () in
  Heap.push h 2.0 "b";
  Heap.push h 1.0 "a";
  (match Heap.peek h with
  | Some (p, v) ->
      check_float "peek prio" 1.0 p;
      Alcotest.(check string) "peek value" "a" v
  | None -> Alcotest.fail "expected peek");
  Alcotest.(check int) "length unchanged" 2 (Heap.length h)

(* Allocate a large value in a helper so the only strong reference is
   the one inside the heap. *)
let weak_of_pushed action =
  let w = Weak.create 1 in
  let v = Array.make 4096 0 in
  Weak.set w 0 (Some v);
  let h = Heap.create () in
  Heap.push h 1.0 v;
  action h;
  (h, w)

let assert_collected name w =
  Gc.full_major ();
  Gc.full_major ();
  Alcotest.(check bool) name false (Weak.check w 0)

let test_heap_pop_releases_value () =
  let h, w = weak_of_pushed (fun h -> ignore (Heap.pop h)) in
  assert_collected "popped value collectable" w;
  Alcotest.(check bool) "heap still usable" true (Heap.is_empty h);
  Heap.push h 2.0 [| 9 |];
  Alcotest.(check int) "push after pop" 1 (Heap.length h)

let test_heap_clear_releases_values () =
  let h, w = weak_of_pushed Heap.clear in
  assert_collected "cleared value collectable" w;
  Alcotest.(check bool) "empty after clear" true (Heap.is_empty h)

let test_pqueue_dijkstra_order () =
  let q = Pqueue.create 10 in
  Pqueue.insert q 0 5.0;
  Pqueue.insert q 1 3.0;
  Pqueue.insert q 2 4.0;
  Pqueue.decrease q 0 1.0;
  let k = Pqueue.pop q in
  Alcotest.(check int) "decreased key first" 0 k;
  check_float "prio" 1.0 (Pqueue.priority q k);
  Pqueue.insert_or_decrease q 2 0.5;
  Alcotest.(check int) "key 2 next" 2 (Pqueue.pop q);
  Alcotest.(check int) "key 1 last" 1 (Pqueue.pop q);
  Alcotest.(check int) "empty" (-1) (Pqueue.pop q)

(* Dijkstra's tie-breaks are the queue's: a cleared queue, left with
   keys queued and stale priorities by earlier use, must pop a
   tie-heavy sequence (priorities from {0, 1, 2, 3}) exactly as a
   fresh queue does. *)
let test_pqueue_clear_reuse () =
  let n = 64 in
  let run q rng steps =
    let popped = ref [] in
    for _ = 1 to steps do
      if Rng.int rng 3 = 0 then begin
        let k = Pqueue.pop q in
        popped := (k, if k >= 0 then Pqueue.priority q k else 0.0) :: !popped
      end
      else Pqueue.insert_or_decrease q (Rng.int rng n) (float_of_int (Rng.int rng 4))
    done;
    let rec drain () =
      let k = Pqueue.pop q in
      if k >= 0 then begin
        popped := (k, Pqueue.priority q k) :: !popped;
        drain ()
      end
    in
    drain ();
    List.rev !popped
  in
  let reused = Pqueue.create n in
  for trial = 1 to 20 do
    (* Leave the queue dirty, then clear it. *)
    let dirt = Rng.create trial in
    for _ = 1 to trial do
      Pqueue.insert_or_decrease reused (Rng.int dirt n) (float_of_int (Rng.int dirt 4))
    done;
    ignore (Pqueue.pop reused);
    Pqueue.insert_or_decrease reused ((trial * 7) mod n) 0.0;
    Pqueue.clear reused;
    Alcotest.(check int) "cleared" (-1) (Pqueue.pop reused);
    let fresh = run (Pqueue.create n) (Rng.create (100 + trial)) 400 in
    let again = run reused (Rng.create (100 + trial)) 400 in
    Alcotest.(check (list (pair int (float 0.0))))
      (Printf.sprintf "trial %d pops" trial)
      fresh again
  done

let test_pqueue_duplicate_insert () =
  let q = Pqueue.create 4 in
  Pqueue.insert q 1 1.0;
  Alcotest.check_raises "duplicate" (Invalid_argument "Pqueue.insert: key already present")
    (fun () -> Pqueue.insert q 1 2.0)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops in sorted order" ~count:200
    QCheck.(list (float_bound_exclusive 1000.0))
    (fun xs ->
      let h = Heap.create () in
      List.iter (fun x -> Heap.push h x x) xs;
      let rec drain acc =
        match Heap.pop h with None -> List.rev acc | Some (p, _) -> drain (p :: acc)
      in
      let out = drain [] in
      out = List.sort compare xs)

let prop_percentile_bounds =
  QCheck.Test.make ~name:"percentile within min/max" ~count:200
    QCheck.(pair (list_of_size (Gen.int_range 1 50) (float_bound_exclusive 100.0)) (float_bound_inclusive 100.0))
    (fun (xs, p) ->
      let arr = Array.of_list xs in
      let v = Stats.percentile arr p in
      let lo, hi = Stats.min_max arr in
      v >= lo -. 1e-9 && v <= hi +. 1e-9)

let suite =
  [ Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng seeds differ" `Quick test_rng_seeds_differ;
    Alcotest.test_case "rng int range" `Quick test_rng_int_range;
    Alcotest.test_case "rng int invalid" `Quick test_rng_int_invalid;
    Alcotest.test_case "rng int unbiased" `Quick test_rng_int_unbiased_large_n;
    Alcotest.test_case "rng float range" `Quick test_rng_float_range;
    Alcotest.test_case "rng uniform mean" `Quick test_rng_uniform_mean;
    Alcotest.test_case "rng normal moments" `Quick test_rng_normal_moments;
    Alcotest.test_case "rng poisson mean" `Quick test_rng_poisson_mean;
    Alcotest.test_case "rng poisson large" `Quick test_rng_poisson_large_lambda;
    Alcotest.test_case "rng exponential mean" `Quick test_rng_exponential_mean;
    Alcotest.test_case "rng split" `Quick test_rng_split_independent;
    Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation;
    Alcotest.test_case "stats basics" `Quick test_stats_basics;
    Alcotest.test_case "stats percentile" `Quick test_stats_percentile;
    Alcotest.test_case "stats nan policy" `Quick test_stats_percentile_rejects_nan;
    Alcotest.test_case "stats cv" `Quick test_stats_cv;
    Alcotest.test_case "stats cdf" `Quick test_stats_cdf;
    Alcotest.test_case "heap ordering" `Quick test_heap_ordering;
    Alcotest.test_case "heap peek" `Quick test_heap_peek;
    Alcotest.test_case "heap pop releases" `Quick test_heap_pop_releases_value;
    Alcotest.test_case "heap clear releases" `Quick test_heap_clear_releases_values;
    Alcotest.test_case "pqueue order" `Quick test_pqueue_dijkstra_order;
    Alcotest.test_case "pqueue duplicate" `Quick test_pqueue_duplicate_insert;
    Alcotest.test_case "pqueue clear and reuse" `Quick test_pqueue_clear_reuse;
    QCheck_alcotest.to_alcotest prop_heap_sorts;
    QCheck_alcotest.to_alcotest prop_percentile_bounds ]
