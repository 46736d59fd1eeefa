(* Tests for Sate_pruning: volumes, WL features, DPP selection. *)

module Volume = Sate_pruning.Volume
module Graph_features = Sate_pruning.Graph_features
module Dpp = Sate_pruning.Dpp
module Builder = Sate_topology.Builder
module Constellation = Sate_orbit.Constellation
module Snapshot = Sate_topology.Snapshot
module Demand = Sate_traffic.Demand

let test_volume_reduction () =
  let inst = Helpers.iridium_instance () in
  let r = Volume.of_instance ~k:3 inst (Sate_te.Instance.demand inst) in
  Alcotest.(check int) "scale" 66 r.Volume.scale;
  Alcotest.(check bool) "reduction factor > 1" true (r.Volume.reduction > 1.0);
  Alcotest.(check bool) "pruned smaller than original" true
    (r.Volume.pruned_path_gb +. r.Volume.pruned_traffic_gb
    < r.Volume.original_path_gb +. r.Volume.original_traffic_gb)

let test_volume_scaling_superlinear () =
  (* Dense volume grows ~n^2: the reduction factor grows with scale
     for a fixed number of active flows (Table 1). *)
  let demand = Demand.of_assoc ~num_sats:1000 [ (0, 1, 5.0); (2, 3, 1.0) ] in
  let small =
    Volume.measure ~num_sats:100 ~k:10 ~avg_path_hops:5.0 ~demand ~active_paths:20
      ~active_path_hops:100
  in
  let large =
    Volume.measure ~num_sats:1000 ~k:10 ~avg_path_hops:15.0 ~demand ~active_paths:20
      ~active_path_hops:100
  in
  Alcotest.(check bool) "larger scale, larger reduction" true
    (large.Volume.reduction > small.Volume.reduction *. 50.0)

let snapshot_at scale time_s =
  let b = Builder.create (Constellation.of_scale scale) in
  Builder.snapshot b ~time_s

let test_wl_identical_graphs () =
  let a = snapshot_at 66 0.0 in
  let b = snapshot_at 66 0.0 in
  let va = Graph_features.vectorize a and vb = Graph_features.vectorize b in
  Alcotest.(check (float 1e-9)) "identical graphs, identical vectors" 1.0
    (Graph_features.cosine va vb)

let test_wl_different_structures () =
  let a = Graph_features.vectorize (snapshot_at 66 0.0) in
  let b = Graph_features.vectorize (snapshot_at 176 0.0) in
  Alcotest.(check bool) "different constellations differ" true
    (Graph_features.cosine a b < 0.999)

let test_wl_similar_snapshots_close () =
  let b66 = Builder.create Constellation.iridium in
  let s0 = Builder.snapshot b66 ~time_s:0.0 in
  let s1 = Builder.snapshot b66 ~time_s:1.0 in
  let other = snapshot_at 176 0.0 in
  let v0 = Graph_features.vectorize s0 in
  let v1 = Graph_features.vectorize s1 in
  let vo = Graph_features.vectorize other in
  Alcotest.(check bool) "adjacent snapshots closer than different constellation" true
    (Graph_features.euclidean v0 v1 <= Graph_features.euclidean v0 vo)

let test_wl_vector_normalised () =
  let v = Graph_features.vectorize (snapshot_at 66 0.0) in
  let norm = sqrt (Array.fold_left (fun a x -> a +. (x *. x)) 0.0 v) in
  Alcotest.(check (float 1e-9)) "unit norm" 1.0 norm;
  Alcotest.(check int) "dimension" Graph_features.dimension (Array.length v)

let test_dpp_selects_k_distinct () =
  let rng = Sate_util.Rng.create 1 in
  let vectors =
    Array.init 30 (fun _ ->
        Array.init 8 (fun _ -> Sate_util.Rng.uniform rng 0.0 1.0))
  in
  let sel = Dpp.select ~vectors ~k:10 in
  Alcotest.(check int) "k items" 10 (Array.length sel);
  let sorted = Array.copy sel in
  Array.sort compare sorted;
  let uniq = Array.of_list (List.sort_uniq compare (Array.to_list sel)) in
  Alcotest.(check (array int)) "distinct" sorted uniq

let test_dpp_prefers_diversity () =
  (* Two tight clusters: the first two picks must hit both clusters. *)
  let near c = Array.init 4 (fun i -> c +. (0.001 *. float_of_int i)) in
  let vectors =
    [| near 0.0; near 0.01; near 0.02; near 10.0; near 10.01; near 10.02 |]
  in
  let sel = Dpp.select ~vectors ~k:2 in
  let cluster i = if vectors.(i).(0) < 5.0 then 0 else 1 in
  Alcotest.(check int) "two picks" 2 (Array.length sel);
  Alcotest.(check bool) "one from each cluster" true
    (cluster sel.(0) <> cluster sel.(1))

let test_dpp_deterministic () =
  let rng = Sate_util.Rng.create 2 in
  let vectors =
    Array.init 20 (fun _ -> Array.init 4 (fun _ -> Sate_util.Rng.uniform rng 0.0 1.0))
  in
  let a = Dpp.select ~vectors ~k:5 in
  let b = Dpp.select ~vectors ~k:5 in
  Alcotest.(check (array int)) "repeatable" a b

let test_dpp_k_larger_than_n () =
  let vectors = [| [| 0.0 |]; [| 1.0 |] |] in
  let sel = Dpp.select ~vectors ~k:10 in
  Alcotest.(check bool) "at most n" true (Array.length sel <= 2)

let test_random_baseline () =
  let sel = Dpp.select_random ~seed:1 ~n:50 ~k:10 in
  Alcotest.(check int) "k items" 10 (Array.length sel);
  Alcotest.(check int) "distinct" 10 (List.length (List.sort_uniq compare (Array.to_list sel)))

let suite =
  [ Alcotest.test_case "volume reduction" `Quick test_volume_reduction;
    Alcotest.test_case "volume superlinear" `Quick test_volume_scaling_superlinear;
    Alcotest.test_case "wl identical" `Quick test_wl_identical_graphs;
    Alcotest.test_case "wl different" `Quick test_wl_different_structures;
    Alcotest.test_case "wl similar close" `Quick test_wl_similar_snapshots_close;
    Alcotest.test_case "wl normalised" `Quick test_wl_vector_normalised;
    Alcotest.test_case "dpp k distinct" `Quick test_dpp_selects_k_distinct;
    Alcotest.test_case "dpp diversity" `Quick test_dpp_prefers_diversity;
    Alcotest.test_case "dpp deterministic" `Quick test_dpp_deterministic;
    Alcotest.test_case "dpp k > n" `Quick test_dpp_k_larger_than_n;
    Alcotest.test_case "random baseline" `Quick test_random_baseline ]
