(* One driver per paper table/figure (see DESIGN.md section 4).

   Default sizes are laptop-scale; SATE_BENCH_FULL=1 widens scales
   (including full 4,236-satellite Starlink topology analyses).  Every
   driver prints the rows/series the paper reports, prefixed with its
   experiment id, so the output can be diffed against EXPERIMENTS.md. *)

module Constellation = Sate_orbit.Constellation
module Builder = Sate_topology.Builder
module Snapshot = Sate_topology.Snapshot
module Analysis = Sate_topology.Analysis
module Generator = Sate_traffic.Generator
module Flow_class = Sate_traffic.Flow_class
module Path = Sate_paths.Path
module Dijkstra = Sate_paths.Dijkstra
module Instance = Sate_te.Instance
module Allocation = Sate_te.Allocation
module Lp_solver = Sate_te.Lp_solver
module Model = Sate_gnn.Model
module Trainer = Sate_gnn.Trainer
module Te_graph = Sate_gnn.Te_graph
module Volume = Sate_pruning.Volume
module Graph_features = Sate_pruning.Graph_features
module Dpp = Sate_pruning.Dpp
module Teal_like = Sate_baselines.Teal_like
module Harp_like = Sate_baselines.Harp_like
module Scenario = Sate_core.Scenario
module Method = Sate_core.Method
module Online = Sate_core.Online
module Offline = Sate_core.Offline
module Control_plane = Sate_core.Control_plane
module Stats = Sate_util.Stats
module Rng = Sate_util.Rng
module Geo = Sate_geo.Geo

let full = Sys.getenv_opt "SATE_BENCH_FULL" = Some "1"

let header id title = Printf.printf "\n=== %s: %s ===\n%!" id title

let rowf fmt = Printf.printf (fmt ^^ "\n%!")

(* Wall-clock milliseconds of [n] calls of [f] (results dropped),
   after one untimed warm-up call: the warm-up takes first-call costs
   (allocation growth, cold caches) out of the samples. *)
let time_ms ~n f =
  ignore (f ());
  Array.init n (fun _ ->
      let t0 = Unix.gettimeofday () in
      ignore (f ());
      (Unix.gettimeofday () -. t0) *. 1000.0)

(* ------------------------------------------------------------------ *)
(* Shared scenario / model plumbing.                                   *)

let scenario ?(scale = 66) ?(mode = Builder.Lasers) ?(lambda = 8.0) ?(k = 4)
    ?(seed = 7) () =
  Scenario.create
    ~config:
      { Scenario.scale; cross_shell = mode; lambda; k; seed; warmup_s = 60.0 }
    ()

let instances_of ?scale ?mode ?lambda ?k ?seed ~count ~spacing () =
  let s = scenario ?scale ?mode ?lambda ?k ?seed () in
  List.init count (fun i ->
      Scenario.instance_at s ~time_s:(float_of_int i *. spacing))

(* Epochs of every cached model. *)
let model_epochs = 50

(* Trained models are expensive: cache per (scale, mode, objective). *)
let model_cache : (int * Builder.cross_shell_mode * Lp_solver.objective, Model.t) Hashtbl.t =
  Hashtbl.create 8

let trained_model ?(scale = 66) ?(mode = Builder.Lasers)
    ?(objective = Lp_solver.Max_throughput) () =
  match Hashtbl.find_opt model_cache (scale, mode, objective) with
  | Some m -> m
  | None ->
      (* Train across traffic intensities so one model serves the
         whole lambda sweep (the paper trains on varying loads). *)
      let train_insts =
        List.concat_map
          (fun lambda -> instances_of ~scale ~mode ~lambda ~count:2 ~spacing:9.0 ())
          [ 6.0; 12.0; 18.0 ]
      in
      let samples = List.map (Trainer.make_sample ~objective) train_insts in
      let model = Model.create ~seed:3 () in
      ignore (Trainer.train ~epochs:model_epochs model samples);
      Hashtbl.replace model_cache (scale, mode, objective) model;
      model

(* ------------------------------------------------------------------ *)
(* Fig. 4 (a): topology holding time CDF.                              *)

let fig4a () =
  header "fig4a" "topology holding time (THT)";
  (* Topology dynamics need the full four-shell constellation: the
     polar shell 3 crosses the 75-degree cutoff and drives most
     inter-orbit churn (two-shell mid-size constellations at 53 deg
     never deactivate links). *)
  let count = if full then 2400 else 600 in
  let cases =
    [ ("starlink-4236/lasers", 4236, Builder.Lasers, count);
      ("starlink-4236/relays", 4236, Builder.Ground_relays, count) ]
  in
  List.iter
    (fun (name, scale, mode, count) ->
      let b =
        Builder.create
          ~config:{ Builder.default_config with Builder.cross_shell = mode }
          (Constellation.of_scale scale)
      in
      let ht = Analysis.holding_times_ms b ~start_s:0.0 ~dt_s:0.0125 ~count in
      if Array.length ht > 0 then begin
        rowf "fig4a %-24s mean=%.1f ms  max=%.1f ms  n=%d" name (Stats.mean ht)
          (snd (Stats.min_max ht))
          (Array.length ht);
        List.iter
          (fun (v, f) -> rowf "fig4a %-24s cdf p%.0f = %.1f ms" name (f *. 100.0) v)
          (Stats.cdf_points ht 4)
      end
      else rowf "fig4a %-24s no topology change in window" name)
    cases

(* ------------------------------------------------------------------ *)
(* Fig. 4 (b): configured-path obsolescence over time.                 *)

let fig4b () =
  header "fig4b" "configured paths becoming obsolete";
  let scale = 4236 in
  let c = Constellation.of_scale scale in
  let b = Builder.create c in
  let snap = Builder.snapshot b ~time_s:0.0 in
  Builder.reset b;
  (* Configure shortest paths for random pairs. *)
  let rng = Rng.create 5 in
  let n = Constellation.size c in
  let paths = ref [] in
  let attempts = if full then 300 else 120 in
  for _ = 1 to attempts do
    let src = Rng.int rng n and dst = Rng.int rng n in
    if src <> dst then
      match Dijkstra.shortest snap ~src ~dst with
      | Some p -> paths := Path.to_list p :: !paths
      | None -> ()
  done;
  let dt = 5.0 in
  let checkpoints = [ 1; 6; 12; 18; 30 ] in
  let series =
    Analysis.path_obsolescence b ~start_s:0.0 ~dt_s:dt ~checkpoints ~paths:!paths
  in
  List.iter
    (fun (k, frac) ->
      rowf "fig4b t=%6.1f s  obsolete=%5.1f%%  (of %d paths)"
        (float_of_int k *. dt) (frac *. 100.0) (List.length !paths))
    series

(* ------------------------------------------------------------------ *)
(* Fig. 4 (c): link exclusion vs TE interval.                          *)

let fig4c () =
  header "fig4c" "ISL exclusion ratio vs interval";
  let scale = 4236 in
  let b = Builder.create (Constellation.of_scale scale) in
  let dt = 0.5 in
  let intervals = [ 1; 4; 20; 60; 120; 240 ] in
  let series = Analysis.exclusion_series b ~start_s:0.0 ~dt_s:dt ~intervals in
  List.iter
    (fun (k, ratio) ->
      rowf "fig4c interval=%7.1f s  excluded=%5.1f%%" (float_of_int k *. dt)
        (ratio *. 100.0))
    series

(* ------------------------------------------------------------------ *)
(* Table 1: dataset volumes, original vs pruned.                       *)

let tab1 () =
  header "tab1" "data-point volume, original vs pruned (GB)";
  let scales = if full then [ 66; 396; 1584; 4236 ] else [ 66; 396; 1584 ] in
  List.iter
    (fun scale ->
      let s = scenario ~scale ~lambda:8.0 ~k:10 () in
      let inst = Scenario.instance_at s ~time_s:0.0 in
      let demand = Instance.demand (Scenario.instance_at s ~time_s:0.5) in
      let r = Volume.of_instance ~k:10 inst demand in
      rowf
        "tab1 scale=%5d  path %10.4g -> %10.4g GB   traffic %10.4g -> %10.4g GB   reduction %8.0fx"
        r.Volume.scale r.Volume.original_path_gb r.Volume.pruned_path_gb
        r.Volume.original_traffic_gb r.Volume.pruned_traffic_gb r.Volume.reduction)
    scales

(* ------------------------------------------------------------------ *)
(* Fig. 8 (a): computational latency vs constellation scale.           *)

let fig8a () =
  header "fig8a" "TE computational latency vs scale (ms, p50 of n calls after a warm-up)";
  let scales = if full then [ 66; 176; 396; 1584 ] else [ 66; 176; 396 ] in
  List.iter
    (fun scale ->
      let inst = Scenario.instance_at (scenario ~scale ~lambda:16.0 ()) ~time_s:0.0 in
      let row name ~n p50 = rowf "fig8a scale=%5d  %-18s %10.2f ms  n=%d" scale name p50 n in
      (* [n] per row fits the bench budget: many calls of the
         sub-second methods, few of the LPs (seconds each). *)
      let p50_ms ~n f = Stats.median (time_ms ~n f) in
      let time_method name ~n solve = row name ~n (p50_ms ~n (fun () -> solve inst)) in
      (* Latency is weight-independent: untrained models time the
         same architecture without hours of training per scale. *)
      let sate = Model.create ~seed:1 () in
      (* Model.predict's stages (graph, forward, decode, trim), with
         the forward timed inside each end-to-end call: timed as
         separate calls, even alternating ones, per-call noise of the
         parallel forward exceeded graph + trim and inverted the rows
         at p50. *)
      let stages () =
        let t0 = Unix.gettimeofday () in
        let g = Te_graph.of_instance inst in
        let t1 = Unix.gettimeofday () in
        let ratios = (Model.forward ~parallel:true sate g).Sate_nn.Autodiff.value in
        let t2 = Unix.gettimeofday () in
        let alloc = Allocation.(trim inst (of_ratios inst ratios.Sate_tensor.Tensor.data)) in
        let t3 = Unix.gettimeofday () in
        (alloc, (t3 -. t0) *. 1000.0, (t2 -. t1) *. 1000.0)
      in
      let alloc, _, _ = stages () in
      assert (alloc = Model.predict sate inst);
      let calls = Array.init 25 (fun _ -> stages ()) in
      row "sate (end-to-end)" ~n:25 (Stats.median (Array.map (fun (_, ms, _) -> ms) calls));
      row "sate (inference)" ~n:25 (Stats.median (Array.map (fun (_, _, ms) -> ms) calls));
      time_method "harp-like" ~n:5 (Method.solve (Method.Harp (Harp_like.create ~seed:1 ())));
      time_method "lp-optimal" ~n:2 Lp_solver.solve;
      (* POP's sub-LPs run on parallel solvers: its latency is that of
         the slowest one. *)
      row "pop-4 (parallel)" ~n:3
        (List.fold_left
           (fun worst (sub, _) -> Float.max worst (p50_ms ~n:3 (fun () -> Lp_solver.solve sub)))
           0.0
           (Sate_baselines.Pop.subproblems ~k:4 inst));
      time_method "ecmp-wf" ~n:5 Sate_baselines.Ecmp_wf.solve;
      if scale <= 176 then
        time_method "teal-like" ~n:15
          (Method.solve (Method.Teal (Teal_like.create ~num_sats:scale ~k:4 ())))
      else
        rowf "fig8a scale=%5d  %-18s %10s" scale "teal-like"
          "OOM (dense input)")
    scales

(* ------------------------------------------------------------------ *)
(* Fig. 8 (b): CDF of SaTE's latency.                                  *)

let fig8b () =
  header "fig8b" "SaTE inference latency CDF";
  let insts = instances_of ~scale:66 ~count:3 ~spacing:5.0 () in
  let model = trained_model () in
  let samples =
    List.concat_map
      (fun inst ->
        let g = Te_graph.of_instance inst in
        Array.to_list (time_ms ~n:10 (fun () -> Model.forward ~parallel:true model g)))
      insts
  in
  let arr = Array.of_list samples in
  rowf "fig8b mean=%.2f ms  std=%.2f ms  n=%d" (Stats.mean arr) (Stats.std arr)
    (Array.length arr);
  List.iter
    (fun (v, f) -> rowf "fig8b cdf p%.0f = %.2f ms" (f *. 100.0) v)
    (Stats.cdf_points arr 5)

(* ------------------------------------------------------------------ *)
(* Fig. 9 (a): training time vs scale.                                 *)

let fig9a () =
  header "fig9a" "training wall-clock vs scale (s)";
  let scales = if full then [ 66; 176 ] else [ 66 ] in
  List.iter
    (fun scale ->
      let insts = instances_of ~scale ~count:3 ~spacing:5.0 () in
      let row name train =
        rowf "fig9a scale=%4d  %-10s %8.2f s (LP labels + 5 epochs x 3 samples)" scale name
          (Stats.median (time_ms ~n:1 train) /. 1000.0)
      in
      row "sate" (fun () ->
          Trainer.train ~epochs:5 (Model.create ~seed:2 ()) (List.map Trainer.make_sample insts));
      row "teal-like" (fun () ->
          Teal_like.train ~epochs:5 (Teal_like.create ~num_sats:scale ~k:4 ()) insts);
      row "harp-like" (fun () -> Harp_like.train ~epochs:5 (Harp_like.create ~seed:2 ()) insts))
    scales

(* ------------------------------------------------------------------ *)
(* Fig. 9 (b): satisfied demand vs number of representative            *)
(* topologies (DPP topology pruning), plus DPP-vs-random ablation.     *)

let fig9b () =
  header "fig9b" "satisfied demand vs representative topologies";
  (* Topology pruning varies the *topology* while holding traffic
     load steady: pair one modest demand set per pool entry with
     topology snapshots spread across the orbit. *)
  let pool_size = if full then 32 else 16 in
  let c = Constellation.of_scale 66 in
  let b = Builder.create c in
  let gen_instance seed time_s =
    let snap = Builder.snapshot b ~time_s in
    let g =
      Generator.create
        ~config:{ Generator.default_config with Generator.seed }
        ~lambda:6.0 ()
    in
    Generator.advance g ~to_s:40.0;
    let demand, up, down = Generator.demand_at g snap in
    Instance.of_demand ~up_caps:up ~down_caps:down c snap demand ~k:4
  in
  let pool =
    Array.init pool_size (fun i -> gen_instance (100 + i) (float_of_int i *. 40.0))
  in
  let vectors =
    Array.map (fun inst -> Graph_features.vectorize inst.Instance.snapshot) pool
  in
  (* Unseen test set: later topologies, fresh traffic seeds. *)
  let test =
    List.init 4 (fun i ->
        gen_instance (200 + i) (float_of_int (pool_size * 40) +. (float_of_int i *. 25.0)))
  in
  let test_samples = List.map Trainer.make_sample test in
  let evaluate_subset name idx =
    let samples =
      Array.to_list idx |> List.map (fun i -> Trainer.make_sample pool.(i))
    in
    let model = Model.create ~seed:4 () in
    ignore (Trainer.train ~epochs:12 model samples);
    let sat = Trainer.evaluate model test_samples in
    rowf "fig9b %-12s k=%2d  satisfied=%.3f" name (Array.length idx) sat
  in
  List.iter
    (fun k -> evaluate_subset "dpp" (Dpp.select ~vectors ~k))
    [ 2; 4; 8 ];
  (* Ablation: random selection at the middle size. *)
  evaluate_subset "random" (Dpp.select_random ~seed:9 ~n:pool_size ~k:4);
  evaluate_subset "random" (Dpp.select_random ~seed:10 ~n:pool_size ~k:8)

(* ------------------------------------------------------------------ *)
(* Fig. 10 (a, b): online satisfied demand vs traffic intensity.       *)

let fig10ab () =
  header "fig10ab" "online satisfied demand vs traffic intensity";
  let modes =
    [ ("lasers", Builder.Lasers); ("relays", Builder.Ground_relays) ]
  in
  let lambdas = if full then [ 4.0; 8.0; 16.0; 24.0 ] else [ 6.0; 12.0; 18.0 ] in
  List.iter
    (fun (mode_name, mode) ->
      let model = trained_model ~mode () in
      List.iter
        (fun lambda ->
          let methods =
            [ Method.Sate model; Method.Lp; Method.Pop 4; Method.Ecmp_wf;
              Method.Satellite_routing ]
          in
          (* Each method gets its own (identically seeded) scenario,
             since Scenario.t is stateful, and is replayed at the
             latency the paper measured at Starlink scale. *)
          List.iter
            (fun m ->
              let r =
                Online.evaluate ?latency_override_ms:(Method.starlink_latency_ms m)
                  ~duration_s:45.0
                  (scenario ~mode ~lambda ()) m
              in
              rowf "fig10ab %-7s lambda=%4.1f  %-18s satisfied=%.3f (started=%d)"
                mode_name lambda r.Online.method_name r.Online.mean_satisfied
                r.Online.recomputations)
            methods)
        lambdas)
    modes

(* ------------------------------------------------------------------ *)
(* Fig. 10 (c): SaTE vs Teal at a scale Teal can handle.               *)

let fig10c () =
  header "fig10c" "SaTE vs Teal-like (66 satellites, offline quality)";
  (* Test hundreds of seconds after training: the topology has
     changed, which SaTE's GNN absorbs but Teal's fixed-size mapping
     (trained on one static topology, as in the paper) does not. *)
  let s_test = scenario ~seed:21 () in
  let insts =
    List.init 4 (fun i ->
        Scenario.instance_at s_test ~time_s:(500.0 +. (float_of_int i *. 60.0)))
  in
  let model = trained_model () in
  let teal = Teal_like.create ~num_sats:66 ~k:4 () in
  let train_insts = instances_of ~count:4 ~spacing:7.0 () in
  ignore (Teal_like.train ~epochs:15 teal train_insts);
  let sate_sat = Offline.satisfied (Method.Sate model) insts in
  let teal_sat = Offline.satisfied (Method.Teal teal) insts in
  let lp_sat = Offline.satisfied Method.Lp insts in
  rowf "fig10c sate      satisfied=%.3f" sate_sat;
  rowf "fig10c teal-like satisfied=%.3f" teal_sat;
  rowf "fig10c lp bound  satisfied=%.3f" lp_sat

(* ------------------------------------------------------------------ *)
(* Fig. 10 (d): cross-scale generalization.                            *)

let fig10d () =
  header "fig10d" "cross-scale generalization (ratio to offline LP optimum)";
  let base_model = trained_model () in
  let test_scales = if full then [ 66; 176; 396 ] else [ 66; 176 ] in
  List.iter
    (fun scale ->
      let insts = instances_of ~scale ~count:2 ~spacing:9.0 ~seed:31 () in
      let lp = Offline.satisfied Method.Lp insts in
      let transferred = Offline.satisfied (Method.Sate base_model) insts in
      (* A model trained natively at this scale. *)
      let native = trained_model ~scale () in
      let native_sat = Offline.satisfied (Method.Sate native) insts in
      rowf "fig10d scale=%4d  native=%.3f  transferred-from-66=%.3f  (lp=%.3f)"
        scale (native_sat /. Float.max 1e-9 lp) (transferred /. Float.max 1e-9 lp) lp)
    test_scales

(* ------------------------------------------------------------------ *)
(* Fig. 12: access-strategy path delay.                                *)

let fig12 () =
  header "fig12" "path delay across access strategies (Frankfurt-Singapore)";
  let c = Constellation.of_scale 396 in
  let b = Builder.create c in
  let snap = Builder.snapshot b ~time_s:0.0 in
  let frankfurt = Geo.of_lat_lon ~lat_deg:50.1 ~lon_deg:8.7 ~alt_km:0.0 in
  let singapore = Geo.of_lat_lon ~lat_deg:1.35 ~lon_deg:103.8 ~alt_km:0.0 in
  let nearest_sat ?shell_limit ground =
    let best = ref (-1) and best_d = ref Float.infinity in
    Array.iteri
      (fun i p ->
        let in_shell =
          match shell_limit with
          | None -> true
          | Some s -> (Constellation.coord_of_id c i).Constellation.shell = s
        in
        if in_shell then begin
          let d = Geo.distance ground p in
          if d < !best_d then begin
            best_d := d;
            best := i
          end
        end)
      snap.Snapshot.sat_positions;
    (!best, !best_d)
  in
  let strategy name shell_limit =
    let src, d_src = nearest_sat ?shell_limit frankfurt in
    let dst, d_dst = nearest_sat ?shell_limit singapore in
    (* Same-shell access also keeps the space segment in that shell. *)
    let banned_nodes =
      match shell_limit with
      | None -> fun _ -> false
      | Some sh ->
          fun node ->
            node < Constellation.size c
            && (Constellation.coord_of_id c node).Constellation.shell <> sh
    in
    match Dijkstra.shortest ~weight:Dijkstra.Km ~banned_nodes snap ~src ~dst with
    | Some p ->
        let up = d_src /. Geo.speed_of_light_km_s *. 1000.0 in
        let down = d_dst /. Geo.speed_of_light_km_s *. 1000.0 in
        let space = Path.delay_ms snap p in
        rowf "fig12 %-22s delay=%6.2f ms (up %.2f + space %.2f + down %.2f, %d hops)"
          name (up +. space +. down) up space down (Path.hops p)
    | None -> rowf "fig12 %-22s unreachable" name
  in
  strategy "any-visible" None;
  strategy "same-shell (shell 0)" (Some 0)

(* ------------------------------------------------------------------ *)
(* Fig. 13: traffic-rule distribution delay.                           *)

let fig13 () =
  header "fig13" "rule distribution delay from Houston";
  let scale = if full then 4236 else 396 in
  let b = Builder.create (Constellation.of_scale scale) in
  let snap = Builder.snapshot b ~time_s:0.0 in
  let delays = Control_plane.rule_distribution_delays_ms snap in
  let finite =
    Array.of_list (List.filter Float.is_finite (Array.to_list delays))
  in
  let lo, hi = Stats.min_max finite in
  rowf "fig13 scale=%d reachable=%d/%d  min=%.1f ms  max=%.1f ms" scale
    (Array.length finite) (Array.length delays) lo hi;
  List.iter
    (fun (v, f) -> rowf "fig13 cdf p%.0f = %.1f ms" (f *. 100.0) v)
    (Stats.cdf_points finite 5)

(* ------------------------------------------------------------------ *)
(* Fig. 14: offline satisfied demand vs intensity.                     *)

let fig14 () =
  header "fig14" "offline satisfied demand (no computation delay)";
  let lambdas = [ 6.0; 12.0; 18.0 ] in
  let model = trained_model () in
  List.iter
    (fun lambda ->
      let insts = instances_of ~lambda ~count:2 ~spacing:8.0 ~seed:41 () in
      let report name m =
        rowf "fig14 lambda=%4.1f  %-18s satisfied=%.3f" lambda name
          (Offline.satisfied m insts)
      in
      report "lp-optimal" Method.Lp;
      report "sate" (Method.Sate model);
      report "pop-4" (Method.Pop 4);
      report "ecmp-wf" Method.Ecmp_wf;
      report "satellite-routing" Method.Satellite_routing)
    lambdas

(* ------------------------------------------------------------------ *)
(* Fig. 15 (a): MLU minimisation.                                      *)

let fig15a () =
  header "fig15a" "maximum link utilisation (lower is better)";
  (* Light enough load that all demand fits: MLU comparisons are only
     meaningful between allocations carrying the same traffic. *)
  let insts = instances_of ~lambda:3.0 ~count:2 ~spacing:8.0 ~seed:51 () in
  let mlu_model = trained_model ~objective:Lp_solver.Min_mlu () in
  let harp = Harp_like.create ~seed:5 () in
  ignore (Harp_like.train ~epochs:10 harp (instances_of ~lambda:3.0 ~count:3 ~spacing:7.0 ()));
  let report name m =
    rowf "fig15a %-18s mlu=%.3f (all demand routed)" name (Offline.mlu m insts)
  in
  report "lp-mlu-optimal" Method.Lp;
  report "sate-mlu" (Method.Sate_mlu mlu_model);
  report "harp-like" (Method.Harp harp);
  report "pop-4" (Method.Pop 4);
  report "ecmp-wf" Method.Ecmp_wf

(* ------------------------------------------------------------------ *)
(* Fig. 15 (b): link-failure robustness.                               *)

let fig15b () =
  header "fig15b" "satisfied-demand loss under random link failures";
  let model = trained_model () in
  let s = scenario ~seed:61 () in
  let inst = Scenario.instance_at s ~time_s:0.0 in
  let baseline = Allocation.satisfied_ratio inst (Model.predict model inst) in
  let rng = Rng.create 8 in
  List.iter
    (fun rate ->
      let losses =
        List.init 3 (fun _ ->
            let snap', _ = Analysis.random_link_failures inst.Instance.snapshot ~rate rng in
            (* Rebuild the instance against the degraded topology:
               stored paths crossing failed links disappear. *)
            let inst' =
              let up_caps, down_caps = Instance.node_caps inst in
              Instance.of_demand ~up_caps ~down_caps (Scenario.constellation s) snap'
                (Instance.demand inst) ~k:(Scenario.config s).Scenario.k
            in
            let sat = Allocation.satisfied_ratio inst' (Model.predict model inst') in
            Float.max 0.0 (baseline -. sat))
      in
      rowf "fig15b failure=%4.1f%%  loss=%.2f%%" (rate *. 100.0)
        (100.0 *. Stats.mean (Array.of_list losses)))
    [ 0.001; 0.01; 0.05 ]

(* ------------------------------------------------------------------ *)
(* Fig. 16 (a): CDF of flow-level satisfied demand.                    *)

let fig16a () =
  header "fig16a" "flow-level satisfied demand CDF";
  let model = trained_model () in
  let s = scenario ~lambda:10.0 ~seed:71 () in
  let inst = Scenario.instance_at s ~time_s:0.0 in
  let ratios = Allocation.per_commodity_ratio inst (Method.solve (Method.Sate model) inst) in
  let fully = Array.fold_left (fun acc r -> if r > 0.999 then acc + 1 else acc) 0 ratios in
  rowf "fig16a flows=%d  fully-satisfied=%.1f%%" (Array.length ratios)
    (100.0 *. float_of_int fully /. float_of_int (max 1 (Array.length ratios)));
  List.iter
    (fun (v, f) -> rowf "fig16a cdf p%.0f = %.3f" (f *. 100.0) v)
    (Stats.cdf_points ratios 5)

(* ------------------------------------------------------------------ *)
(* Fig. 16 (b): coefficient of variation over time spans.              *)

let fig16b () =
  header "fig16b" "CV of flow-level satisfied demand over time spans";
  let model = trained_model () in
  let s = scenario ~lambda:10.0 ~seed:81 () in
  let ticks = 16 in
  (* Per-pair satisfied series over the run. *)
  let series : (int * int, float list) Hashtbl.t = Hashtbl.create 64 in
  for i = 0 to ticks - 1 do
    let inst = Scenario.instance_at s ~time_s:(float_of_int i) in
    let ratios = Allocation.per_commodity_ratio inst (Method.solve (Method.Sate model) inst) in
    Array.iteri
      (fun f r ->
        let c = inst.Instance.commodities.(f) in
        let key = (c.Instance.src, c.Instance.dst) in
        let prev = Option.value ~default:[] (Hashtbl.find_opt series key) in
        Hashtbl.replace series key (r :: prev))
      ratios
  done;
  List.iter
    (fun span ->
      let cvs = ref [] in
      Hashtbl.iter
        (fun _ values ->
          if List.length values >= span then begin
            let arr = Array.of_list (List.filteri (fun i _ -> i < span) values) in
            let cv = Stats.coefficient_of_variation arr in
            if Float.is_finite cv then cvs := cv :: !cvs
          end)
        series;
      if !cvs <> [] then
        rowf "fig16b span=%2d s  median CV=%.3f (pairs=%d)" span
          (Stats.median (Array.of_list !cvs))
          (List.length !cvs))
    [ 4; 8; 16 ]

(* ------------------------------------------------------------------ *)
(* Tables 2 and 4: parameter echoes.                                   *)

let tab2 () =
  header "tab2" "traffic flow parameters";
  List.iter
    (fun cls ->
      let lo, hi = Flow_class.duration_range_s cls in
      rowf "tab2 %-14s demand=%7.3f Mbps  duration=%5.0f-%5.0f s"
        (Flow_class.to_string cls) (Flow_class.demand_mbps cls) lo hi)
    Flow_class.all

let tab4 () =
  header "tab4" "orbital parameters";
  List.iter
    (fun constellation ->
      Array.iter
        (fun (sh : Sate_orbit.Shell.t) ->
          rowf "tab4 %-18s %-10s alt=%5.0f km  inc=%5.1f deg  planes=%2d x %2d"
            (Constellation.name constellation) sh.Sate_orbit.Shell.name
            sh.Sate_orbit.Shell.altitude_km sh.Sate_orbit.Shell.inclination_deg
            sh.Sate_orbit.Shell.planes sh.Sate_orbit.Shell.sats_per_plane)
        (Constellation.shells constellation))
    [ Constellation.iridium; Constellation.starlink_phase1 ]

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md section 5).                                    *)

let ablate_attention () =
  header "ablate_attention" "GAT attention vs mean aggregation";
  let insts = instances_of ~count:3 ~spacing:7.0 () in
  let samples = List.map Trainer.make_sample insts in
  let test = List.map Trainer.make_sample (instances_of ~count:2 ~spacing:9.0 ~seed:91 ()) in
  let run name hyper =
    let model = Model.create ~hyper ~seed:3 () in
    ignore (Trainer.train ~epochs:25 model samples);
    rowf "ablate_attention %-10s satisfied=%.3f" name (Trainer.evaluate model test)
  in
  run "attention" Model.default_hyper;
  run "mean" { Model.default_hyper with Model.attention = false }

let ablate_graph () =
  header "ablate_graph" "reduced graph (Fig 6b) vs +access relation (Fig 6a)";
  let insts = instances_of ~count:2 ~spacing:7.0 () in
  let time_variant name with_access =
    let hyper = { Model.default_hyper with Model.with_access_relation = with_access } in
    let model = Model.create ~hyper ~seed:7 () in
    let ms =
      Array.concat
        (List.map
           (fun inst ->
             let g = Te_graph.of_instance ~with_access_relation:with_access inst in
             time_ms ~n:5 (fun () -> Model.forward model g))
           insts)
    in
    rowf "ablate_graph %-10s inference p50=%.2f ms (n=%d)  params=%d" name (Stats.median ms)
      (Array.length ms) (Model.num_parameters model)
  in
  time_variant "reduced" false;
  time_variant "full" true

let ablate_trim () =
  header "ablate_trim" "constraint-violation correction on/off";
  let model = trained_model () in
  let inst = List.hd (instances_of ~lambda:16.0 ~count:1 ~spacing:1.0 ~seed:95 ()) in
  let raw = Allocation.of_ratios inst (Model.ratios model inst) in
  let trimmed = Allocation.trim inst raw in
  rowf "ablate_trim raw      feasible=%b  flow=%.1f Mbps"
    (Allocation.is_feasible inst raw) (Allocation.total_flow raw);
  rowf "ablate_trim trimmed  feasible=%b  flow=%.1f Mbps"
    (Allocation.is_feasible inst trimmed) (Allocation.total_flow trimmed)

let ablate_fairness () =
  header "ablate_fairness" "throughput vs log-utility vs max-min (flow-level fairness, H.4)";
  let inst = List.hd (instances_of ~lambda:14.0 ~count:1 ~spacing:1.0 ~seed:97 ()) in
  let report m =
    let alloc = Method.solve m inst in
    let ratios = Allocation.per_commodity_ratio inst alloc in
    let starved =
      Array.fold_left (fun acc r -> if r < 0.05 then acc + 1 else acc) 0 ratios
    in
    rowf "ablate_fairness %-16s satisfied=%.3f  p10-flow=%.3f  starved(<5%%)=%d/%d"
      (Method.name m)
      (Allocation.satisfied_ratio inst alloc)
      (Stats.percentile ratios 10.0)
      starved (Array.length ratios)
  in
  List.iter report [ Method.Lp; Method.Lp_utility; Method.Max_min; Method.Ecmp_wf ]

let ablate_finetune () =
  header "ablate_finetune" "cross-scale transfer + fine-tuning (Sec. 7)";
  let base = trained_model () in
  let target_scale = 176 in
  let test =
    List.map Trainer.make_sample
      (instances_of ~scale:target_scale ~count:2 ~spacing:9.0 ~seed:99 ())
  in
  let before = Trainer.evaluate base test in
  (* Fine-tune a copy on a few target-scale samples. *)
  let tmp = Filename.temp_file "sate_ft" ".bin" in
  Model.save base tmp;
  let tuned = Model.load tmp in
  Sys.remove tmp;
  let tune_samples =
    List.map Trainer.make_sample
      (instances_of ~scale:target_scale ~count:3 ~spacing:8.0 ~seed:98 ())
  in
  ignore (Trainer.fine_tune ~epochs:10 tuned tune_samples);
  let after = Trainer.evaluate tuned test in
  rowf "ablate_finetune transferred-from-66      satisfied=%.3f" before;
  rowf "ablate_finetune after-10-epoch-fine-tune satisfied=%.3f" after

(* ------------------------------------------------------------------ *)

let all : (string * (unit -> unit)) list =
  [ ("tab2", tab2);
    ("tab4", tab4);
    ("fig4a", fig4a);
    ("fig4b", fig4b);
    ("fig4c", fig4c);
    ("tab1", tab1);
    ("fig8a", fig8a);
    ("fig8b", fig8b);
    ("fig9a", fig9a);
    ("fig9b", fig9b);
    ("fig10ab", fig10ab);
    ("fig10c", fig10c);
    ("fig10d", fig10d);
    ("fig12", fig12);
    ("fig13", fig13);
    ("fig14", fig14);
    ("fig15a", fig15a);
    ("fig15b", fig15b);
    ("fig16a", fig16a);
    ("fig16b", fig16b);
    ("ablate_attention", ablate_attention);
    ("ablate_fairness", ablate_fairness);
    ("ablate_finetune", ablate_finetune);
    ("ablate_graph", ablate_graph);
    ("ablate_trim", ablate_trim) ]
