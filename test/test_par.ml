(* Determinism tests for the Sate_par domain pool: every parallel
   kernel must produce bit-identical results for any pool size,
   including the sequential (size-1) fallback. *)

open Sate_tensor
module Par = Sate_par.Par
module Rng = Sate_util.Rng
module Constellation = Sate_orbit.Constellation
module Builder = Sate_topology.Builder
module Path = Sate_paths.Path
module Path_db = Sate_paths.Path_db
module A = Sate_nn.Autodiff
module Te_graph = Sate_gnn.Te_graph
module Gat = Sate_gnn.Gat
module Scenario = Sate_core.Scenario
module Method = Sate_core.Method
module Online = Sate_core.Online

(* Bitwise tensor equality: Int64 payload comparison distinguishes
   -0.0 from 0.0 and any rounding difference a tolerance would hide. *)
let check_bits_equal name (a : Tensor.t) (b : Tensor.t) =
  Alcotest.(check (pair int int)) (name ^ " shape") (a.Tensor.rows, a.Tensor.cols)
    (b.Tensor.rows, b.Tensor.cols);
  Array.iteri
    (fun i x ->
      let y = b.Tensor.data.(i) in
      if Int64.bits_of_float x <> Int64.bits_of_float y then
        Alcotest.failf "%s: element %d differs bitwise (%h vs %h)" name i x y)
    a.Tensor.data

let pool_sizes = [ 1; 2; 4 ]

(* Run [f] under each pool size and check all results are bitwise
   equal to the size-1 (sequential-fallback) baseline. *)
let check_pools name f =
  let baseline = Par.with_domains 1 f in
  List.iter
    (fun n ->
      let got = Par.with_domains n f in
      check_bits_equal (Printf.sprintf "%s (pool %d)" name n) baseline got)
    pool_sizes

let random_tensor rng rows cols =
  Tensor.init rows cols (fun _ _ -> Rng.uniform rng (-2.0) 2.0)

(* 97*53*61 flops > 65536, so the parallel path is exercised. *)
let test_matmul_deterministic () =
  let rng = Rng.create 11 in
  let a = random_tensor rng 97 53 in
  let b = random_tensor rng 53 61 in
  check_pools "matmul" (fun () -> Tensor.matmul a b);
  (* Single-column and single-inner-dimension shapes, also above the
     gate: 4099*17*1 and 9000*1*9 flops. *)
  let a = random_tensor rng 4099 17 in
  let b = random_tensor rng 17 1 in
  check_pools "matmul p = 1" (fun () -> Tensor.matmul a b);
  let a = random_tensor rng 9000 1 in
  let b = random_tensor rng 1 9 in
  check_pools "matmul n = 1" (fun () -> Tensor.matmul a b)

(* 3000 rows > the 2048-row gate. *)
let test_segment_softmax_deterministic () =
  let rng = Rng.create 12 in
  let m = 3000 and segments = 40 in
  let scores = random_tensor rng m 1 in
  let seg = Array.init m (fun i -> (i * 7) mod segments) in
  check_pools "segment_softmax" (fun () -> Tensor.segment_softmax scores seg)

(* 3000*8 cells > the 16384-cell gate. *)
let test_segment_sum_deterministic () =
  let rng = Rng.create 13 in
  let m = 3000 and segments = 50 in
  let x = random_tensor rng m 8 in
  let seg = Array.init m (fun i -> (i * 3) mod segments) in
  check_pools "segment_sum" (fun () -> Tensor.segment_sum x seg ~segments)

(* 3000 edges x 8 columns > the 16384-cell gate of edge_aggregate;
   edge_scores runs sequentially at any size. *)
let test_edge_kernels_deterministic () =
  let rng = Rng.create 14 in
  let e = 3000 and n_src = 70 and n_dst = 90 in
  let src = Array.init e (fun i -> (i * 11) mod n_src) in
  let dst = Array.init e (fun i -> (i * 7) mod n_dst) in
  let pd = random_tensor rng n_dst 1 and ps = random_tensor rng n_src 1 in
  let pe = random_tensor rng e 1 in
  check_pools "edge_scores" (fun () -> Tensor.edge_scores pd ~dst ps ~src pe);
  let hs = random_tensor rng n_src 8 and he = random_tensor rng e 8 in
  let alpha = random_tensor rng e 1 in
  check_pools "edge_aggregate" (fun () ->
      Tensor.edge_aggregate hs ~src he alpha ~dst ~rows:n_dst)

let test_map_array_matches_sequential () =
  let input = Array.init 1000 (fun i -> i) in
  let expected = Array.map (fun i -> (i * i) + 1) input in
  List.iter
    (fun n ->
      let got = Par.with_domains n (fun () -> Par.map_array (fun i -> (i * i) + 1) input) in
      Alcotest.(check (array int)) (Printf.sprintf "map_array pool %d" n) expected got)
    pool_sizes

let test_range_iter_covers_all_indices () =
  List.iter
    (fun n ->
      let hits = Array.make 997 0 in
      Par.with_domains n (fun () ->
          Par.range_iter 997 (fun lo hi ->
              for i = lo to hi - 1 do
                hits.(i) <- hits.(i) + 1
              done));
      Alcotest.(check bool) (Printf.sprintf "each index once (pool %d)" n) true
        (Array.for_all (fun h -> h = 1) hits))
    pool_sizes

let test_exception_propagates_and_pool_survives () =
  Par.with_domains 2 (fun () ->
      Alcotest.check_raises "worker exception reaches caller"
        (Failure "boom at 321") (fun () ->
          Par.range_iter 1000 (fun lo hi ->
              if lo <= 321 && 321 < hi then failwith "boom at 321"));
      (* The pool must stay usable after a failed task. *)
      let out = Par.map_array (fun i -> i * 2) (Array.init 64 (fun i -> i)) in
      Alcotest.(check (array int)) "pool reusable after failure"
        (Array.init 64 (fun i -> i * 2)) out)

let iridium_pairs () =
  (* A deterministic spread of pairs, with duplicates to exercise
     dedup inside Path_db.compute. *)
  let n = Constellation.size Constellation.iridium in
  let pairs = List.init 24 (fun i -> (i mod n, (i * 13 + 5) mod n)) in
  pairs @ [ List.hd pairs ]

let path_db_fingerprint db =
  Array.to_list (Path_db.pairs db)
  |> List.map (fun (src, dst) ->
         let e = Path_db.find db ~src ~dst in
         ((src, dst), Array.map Path.to_list e.Path_db.paths, e.Path_db.links))

let test_path_db_deterministic () =
  let b = Builder.create Constellation.iridium in
  let snap = Builder.snapshot b ~time_s:0.0 in
  let pairs = iridium_pairs () in
  let baseline =
    Par.with_domains 1 (fun () ->
        path_db_fingerprint (Path_db.compute Constellation.iridium snap ~pairs ~k:4))
  in
  List.iter
    (fun n ->
      let got =
        Par.with_domains n (fun () ->
            path_db_fingerprint (Path_db.compute Constellation.iridium snap ~pairs ~k:4))
      in
      Alcotest.(check bool) (Printf.sprintf "path db pool %d" n) true (baseline = got))
    pool_sizes

let test_gat_forward_parallel_deterministic () =
  let rng = Rng.create 21 in
  let dim = 8 and heads = 4 in
  let n_src = 30 and n_dst = 20 and m = 90 in
  let gat = Gat.create (Rng.split rng) ~dim ~heads in
  let x_src = A.leaf (random_tensor rng n_src dim) in
  let x_dst = A.leaf (random_tensor rng n_dst dim) in
  let edges =
    { Te_graph.src = Array.init m (fun i -> (i * 11) mod n_src);
      Te_graph.dst = Array.init m (fun i -> (i * 7) mod n_dst);
      Te_graph.feat = random_tensor rng m 1 }
  in
  let run () = (Gat.forward ~parallel:true gat ~x_src ~x_dst ~edges).A.value in
  let sequential = (Gat.forward gat ~x_src ~x_dst ~edges).A.value in
  check_bits_equal "gat parallel vs sequential" sequential
    (Par.with_domains 4 run);
  check_pools "gat forward" run

let small_scenario () =
  Scenario.create
    ~config:{ Scenario.default_config with Scenario.lambda = 4.0; warmup_s = 10.0 }
    ()

let report_fingerprint (r : Online.report) =
  (r.Online.method_name, r.Online.mean_satisfied, r.Online.per_tick,
   r.Online.recomputations)

(* An online run depends on neither wall-clock time nor pool size,
   with the latency pinned or at its default; Path_db still fans out
   inside it. *)
let test_evaluate_deterministic () =
  let run () =
    List.map
      (fun (m, latency_override_ms) ->
        report_fingerprint
          (Online.evaluate ?latency_override_ms ~duration_s:3.0 (small_scenario ()) m))
      [ (Method.Ecmp_wf, Some 54000.0); (Method.Satellite_routing, Some 0.0);
        (Method.Ecmp_wf, None) ]
  in
  let sequential = Par.with_domains 1 run in
  List.iter
    (fun n ->
      Alcotest.(check bool) (Printf.sprintf "evaluate pool %d" n) true
        (sequential = Par.with_domains n run))
    pool_sizes

let test_chunking_properties () =
  (* Empty and singleton ranges must be safe under any pool. *)
  Par.with_domains 3 (fun () ->
      Par.range_iter 0 (fun _ _ -> Alcotest.fail "called on empty range");
      Alcotest.(check (array int)) "empty map_array" [||]
        (Par.map_array (fun _ -> Alcotest.fail "mapped an empty array") [||]);
      let hit = ref false in
      Par.range_iter 1 (fun lo hi ->
          Alcotest.(check (pair int int)) "range" (0, 1) (lo, hi);
          hit := true);
      Alcotest.(check bool) "singleton ran" true !hit;
      (* Nested submission falls back to inline execution, no deadlock. *)
      let nested =
        Par.map_array
          (fun i -> Par.map_array (fun j -> (10 * i) + j) [| 0; 1; 2 |])
          [| 0; 1; 2; 3 |]
      in
      Alcotest.(check (array int)) "nested inline" [| 20; 21; 22 |] nested.(2))

let suite =
  [ Alcotest.test_case "matmul deterministic" `Quick test_matmul_deterministic;
    Alcotest.test_case "segment softmax deterministic" `Quick
      test_segment_softmax_deterministic;
    Alcotest.test_case "segment sum deterministic" `Quick
      test_segment_sum_deterministic;
    Alcotest.test_case "map_array" `Quick test_map_array_matches_sequential;
    Alcotest.test_case "range_iter coverage" `Quick
      test_range_iter_covers_all_indices;
    Alcotest.test_case "exception propagation" `Quick
      test_exception_propagates_and_pool_survives;
    Alcotest.test_case "path db deterministic" `Quick test_path_db_deterministic;
    Alcotest.test_case "gat parallel deterministic" `Quick
      test_gat_forward_parallel_deterministic;
    Alcotest.test_case "evaluate deterministic" `Slow test_evaluate_deterministic;
    Alcotest.test_case "chunking edge cases" `Quick test_chunking_properties;
    Alcotest.test_case "edge kernels deterministic" `Quick
      test_edge_kernels_deterministic ]
