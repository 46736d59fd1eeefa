(* Bechamel micro-benchmarks of the TE computation kernels: one
   Test.make per method (the latency quantity behind Table-style
   results of Fig. 8) plus the hot tensor kernels. *)

open Bechamel
module Model = Sate_gnn.Model
module Te_graph = Sate_gnn.Te_graph
module Tensor = Sate_tensor.Tensor
module Scenario = Sate_core.Scenario
module Par = Sate_par.Par
module Constellation = Sate_orbit.Constellation
module Builder = Sate_topology.Builder
module Generator = Sate_traffic.Generator
module Path_db = Sate_paths.Path_db
module Gat = Sate_gnn.Gat
module A = Sate_nn.Autodiff

let tests () =
  let s =
    Scenario.create
      ~config:{ Scenario.default_config with Scenario.lambda = 6.0; warmup_s = 30.0 }
      ()
  in
  let inst = Scenario.instance_at s ~time_s:0.0 in
  let model = Model.create ~seed:1 () in
  let graph = Te_graph.of_instance inst in
  let a = Tensor.xavier (Sate_util.Rng.create 1) 64 64 in
  let b = Tensor.xavier (Sate_util.Rng.create 2) 64 64 in
  (* 256x256 is above the matmul parallel gate; the "-par" variants
     use the ambient pool (sized by SATE_DOMAINS or core count) while
     the plain ones pin a size-1 pool, so the pair measures the
     domain-pool speedup directly. *)
  let a256 = Tensor.xavier (Sate_util.Rng.create 3) 256 256 in
  let b256 = Tensor.xavier (Sate_util.Rng.create 4) 256 256 in
  let matmul_1 name a b =
    Test.make ~name (Staged.stage (fun () -> Par.with_domains 1 (fun () -> Tensor.matmul a b)))
  in
  let xavier seed rows cols = Tensor.xavier (Sate_util.Rng.create seed) rows cols in
  (* One R2-shaped GAT block of a sate-396 round: satellites to paths
     (396 -> 3,300 nodes) over 27,438 edges, model width and heads. *)
  let gat_r2 =
    let rng = Sate_util.Rng.create 11 in
    let n_src = 396 and n_dst = 3300 and e = 27438 in
    let gat = Gat.create rng ~dim:32 ~heads:2 in
    let x_src = A.const (Tensor.xavier rng n_src 32) in
    let x_dst = A.const (Tensor.xavier rng n_dst 32) in
    let edges =
      { Te_graph.src = Array.init e (fun i -> (i * 7) mod n_src);
        dst = Array.init e (fun i -> i mod n_dst);
        feat = Tensor.xavier rng e 1 }
    in
    Test.make ~name:"gat-forward-27438"
      (Staged.stage (fun () ->
           Par.with_domains 1 (fun () -> Gat.forward gat ~x_src ~x_dst ~edges)))
  in
  let iridium = Constellation.iridium in
  let snap = Builder.snapshot (Builder.create iridium) ~time_s:0.0 in
  let db_pairs =
    let n = Constellation.size iridium in
    List.init 16 (fun i -> (i mod n, ((i * 13) + 5) mod n))
  in
  (* The per-round upkeep at the paper's scale, before any TE method:
     Starlink 4,236 snapshots 12.5 ms apart (laser partners kept by
     hysteresis, as online), and the demand of a generator warmed for
     60 s at 8 flows/s against one snapshot. *)
  let starlink = Builder.create Constellation.starlink_phase1 in
  let starlink_snap = Builder.snapshot starlink ~time_s:0.0 in
  let step = ref 0 in
  let snapshot_4236 =
    Test.make ~name:"snapshot-4236"
      (Staged.stage (fun () ->
           incr step;
           Builder.snapshot starlink ~time_s:(float_of_int !step *. 0.0125)))
  in
  let demand_4236 =
    let gen = Generator.create ~lambda:8.0 () in
    Generator.advance gen ~to_s:60.0;
    Test.make ~name:"demand-4236"
      (Staged.stage (fun () -> Generator.demand_at gen starlink_snap))
  in
  (* The Yen fallback of a Starlink path search: k = 4 between four
     fixed pairs of the t = 0 snapshot (two same-shell, two
     cross-shell). *)
  let yen_4236 =
    let pairs = [ (0, 1_000); (37, 1_500); (100, 3_000); (2_500, 4_100) ] in
    Test.make ~name:"yen-4236"
      (Staged.stage (fun () ->
           List.iter
             (fun (src, dst) -> ignore (Sate_paths.Yen.k_shortest starlink_snap ~src ~dst ~k:4))
             pairs))
  in
  Test.make_grouped ~name:"te" ~fmt:"%s/%s"
    [ Test.make ~name:"sate-inference"
        (Staged.stage (fun () -> Model.forward ~parallel:true model graph));
      Test.make ~name:"sate-end-to-end" (Staged.stage (fun () -> Model.predict model inst));
      Test.make ~name:"lp-optimal" (Staged.stage (fun () -> Sate_te.Lp_solver.solve inst));
      Test.make ~name:"lp-optimal-verified"
        (Staged.stage (fun () -> Sate_te.Lp_solver.solve ~verify:true inst));
      Test.make ~name:"grad-check-ops"
        (Staged.stage (fun () -> Sate_check.Grad_check.all_ops ()));
      Test.make ~name:"ecmp-wf" (Staged.stage (fun () -> Sate_baselines.Ecmp_wf.solve inst));
      Test.make ~name:"satellite-routing"
        (Staged.stage (fun () -> Sate_baselines.Satellite_routing.solve inst));
      Test.make ~name:"graph-build" (Staged.stage (fun () -> Te_graph.of_instance inst));
      Test.make ~name:"matmul-64" (Staged.stage (fun () -> Tensor.matmul a b));
      matmul_1 "matmul-256" a256 b256;
      Test.make ~name:"matmul-256-par" (Staged.stage (fun () -> Tensor.matmul a256 b256));
      (* The GNN's own shapes on a sate-396 round (3,300 paths, 27,438
         path-satellite edges), on one domain. *)
      matmul_1 "matmul-3300x32x16" (xavier 5 3300 32) (xavier 6 32 16);
      matmul_1 "matmul-27438x16x1" (xavier 7 27438 16) (xavier 8 16 1);
      matmul_1 "matmul-3300x64x64" (xavier 9 3300 64) (xavier 10 64 64);
      gat_r2;
      Test.make ~name:"path-db"
        (Staged.stage (fun () ->
             Par.with_domains 1 (fun () ->
                 Path_db.compute iridium snap ~pairs:db_pairs ~k:4)));
      Test.make ~name:"path-db-par"
        (Staged.stage (fun () -> Path_db.compute iridium snap ~pairs:db_pairs ~k:4));
      snapshot_4236;
      demand_4236;
      yen_4236 ]

let run () =
  print_endline "\n=== micro: bechamel kernel benchmarks (ns/run) ===";
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances (tests ()) in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols_result acc ->
        match Analyze.OLS.estimates ols_result with
        | Some (est :: _) -> (name, est) :: acc
        | Some [] | None -> acc)
      results []
    |> List.sort compare
  in
  List.iter
    (fun (name, ns) -> Printf.printf "micro %-28s %12.1f ns  (%.3f ms)\n" name ns (ns /. 1e6))
    rows
