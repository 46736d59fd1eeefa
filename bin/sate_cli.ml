(* Command-line interface to the SaTE library.

   Subcommands:
     sate topology  — topology snapshot / holding-time statistics
     sate traffic   — traffic-matrix statistics at a given intensity
     sate train     — train a SaTE model on a scenario and save it
     sate eval      — evaluate a saved model (offline and online)
     sate solve     — run one TE computation with a chosen method *)

open Cmdliner

module Constellation = Sate_orbit.Constellation
module Builder = Sate_topology.Builder
module Snapshot = Sate_topology.Snapshot
module Analysis = Sate_topology.Analysis
module Scenario = Sate_core.Scenario
module Method = Sate_core.Method
module Online = Sate_core.Online
module Model = Sate_gnn.Model
module Trainer = Sate_gnn.Trainer
module Allocation = Sate_te.Allocation
module Instance = Sate_te.Instance
module Stats = Sate_util.Stats

(* Shared options. *)

let scale_arg =
  let doc = "Constellation scale: 66, 176, 396, 528, 1584 or 4236 satellites." in
  Arg.(value & opt int 66 & info [ "scale" ] ~docv:"N" ~doc)

let lambda_arg =
  let doc = "Traffic intensity in flows per second." in
  Arg.(value & opt float 8.0 & info [ "lambda" ] ~docv:"RATE" ~doc)

let mode_arg =
  let mode_conv =
    Arg.enum [ ("lasers", Builder.Lasers); ("relays", Builder.Ground_relays) ]
  in
  let doc = "Cross-shell link regime: $(b,lasers) or $(b,relays)." in
  Arg.(value & opt mode_conv Builder.Lasers & info [ "cross-shell" ] ~docv:"MODE" ~doc)

let seed_arg =
  let doc = "Random seed for deterministic runs." in
  Arg.(value & opt int 7 & info [ "seed" ] ~docv:"SEED" ~doc)

let scenario_of scale mode lambda seed =
  Scenario.create
    ~config:
      { Scenario.scale; cross_shell = mode; lambda; k = 4; seed; warmup_s = 60.0 }
    ()

(* sate topology *)

let topology_cmd =
  let run scale mode snapshots =
    let b =
      Builder.create
        ~config:{ Builder.default_config with Builder.cross_shell = mode }
        (Constellation.of_scale scale)
    in
    let snap = Builder.snapshot b ~time_s:0.0 in
    Printf.printf "scale=%d nodes=%d links=%d\n" scale (Snapshot.num_nodes snap)
      (Array.length snap.Snapshot.links);
    Builder.reset b;
    let ht = Analysis.holding_times_ms b ~start_s:0.0 ~dt_s:0.0125 ~count:snapshots in
    if Array.length ht > 0 then
      Printf.printf "THT over %d snapshots @12.5ms: mean=%.1f ms max=%.1f ms n=%d\n"
        snapshots (Stats.mean ht)
        (snd (Stats.min_max ht))
        (Array.length ht)
    else Printf.printf "topology unchanged over the sampled window\n"
  in
  let snapshots =
    Arg.(value & opt int 400 & info [ "snapshots" ] ~docv:"N" ~doc:"Snapshots to sample at 12.5 ms.")
  in
  Cmd.v
    (Cmd.info "topology" ~doc:"Topology snapshot and holding-time statistics")
    Term.(const run $ scale_arg $ mode_arg $ snapshots)

(* sate traffic *)

let traffic_cmd =
  let run scale mode lambda seed =
    let s = scenario_of scale mode lambda seed in
    let inst = Scenario.instance_at s ~time_s:0.0 in
    Printf.printf
      "scale=%d lambda=%.1f: %d commodities, %d candidate paths, total demand %.1f Mbps (routable %.1f)\n"
      scale lambda (Instance.num_commodities inst) (Instance.num_paths inst)
      (Instance.total_demand inst) (Instance.routable_demand inst)
  in
  Cmd.v
    (Cmd.info "traffic" ~doc:"Traffic-matrix statistics for a scenario")
    Term.(const run $ scale_arg $ mode_arg $ lambda_arg $ seed_arg)

(* sate train *)

let model_arg =
  let doc = "Path of the model file." in
  Arg.(value & opt string "sate-model.bin" & info [ "model" ] ~docv:"FILE" ~doc)

let train_cmd =
  let run scale mode lambda seed epochs samples out =
    let s = scenario_of scale mode lambda seed in
    Printf.printf "collecting %d training instances...\n%!" samples;
    let insts =
      List.init samples (fun i -> Scenario.instance_at s ~time_s:(float_of_int i *. 8.0))
    in
    let data = List.map Trainer.make_sample insts in
    let model = Model.create ~seed () in
    Printf.printf "training %d epochs on %d samples...\n%!" epochs samples;
    let r = Trainer.train ~epochs model data in
    Printf.printf "trained in %.1f s (loss %.4f -> %.4f)\n" r.Trainer.wall_clock_s
      r.Trainer.losses.(0)
      r.Trainer.losses.(Array.length r.Trainer.losses - 1);
    Model.save model out;
    Printf.printf "model saved to %s (%d parameters)\n" out (Model.num_parameters model)
  in
  let epochs =
    Arg.(value & opt int 30 & info [ "epochs" ] ~docv:"N" ~doc:"Training epochs.")
  in
  let samples =
    Arg.(value & opt int 5 & info [ "samples" ] ~docv:"N" ~doc:"Training instances.")
  in
  Cmd.v
    (Cmd.info "train" ~doc:"Train a SaTE model on a scenario and save it")
    Term.(const run $ scale_arg $ mode_arg $ lambda_arg $ seed_arg $ epochs $ samples $ model_arg)

(* sate eval *)

let eval_cmd =
  let run scale mode lambda seed model_path duration =
    match Model.load model_path with
    | exception (Invalid_argument msg | Sys_error msg) ->
        `Error (false, Printf.sprintf "cannot load model %s: %s" model_path msg)
    | model ->
        let s = scenario_of scale mode lambda seed in
        let inst = Scenario.instance_at s ~time_s:0.0 in
        let alloc, ms = Method.solve_timed (Method.Sate model) inst in
        Printf.printf "offline: satisfied=%.1f%% latency=%.1f ms feasible=%b\n%!"
          (100.0 *. Allocation.satisfied_ratio inst alloc)
          ms
          (Allocation.is_feasible inst alloc);
        let s2 = scenario_of scale mode lambda (seed + 1) in
        let r = Online.evaluate ~duration_s:duration s2 (Method.Sate model) in
        Printf.printf "online (%.0f s): satisfied=%.1f%% over %d rounds\n"
          duration
          (100.0 *. r.Online.mean_satisfied)
          r.Online.recomputations;
        `Ok ()
  in
  let duration =
    Arg.(value & opt float 30.0 & info [ "duration" ] ~docv:"S" ~doc:"Online horizon (s).")
  in
  Cmd.v
    (Cmd.info "eval" ~doc:"Evaluate a saved SaTE model offline and online")
    Term.(ret (const run $ scale_arg $ mode_arg $ lambda_arg $ seed_arg $ model_arg $ duration))

(* sate solve *)

let solve_cmd =
  let method_conv =
    Arg.enum
      [ ("lp", `Lp); ("pop", `Pop); ("ecmp", `Ecmp); ("routing", `Routing) ]
  in
  let run scale mode lambda seed m =
    let s = scenario_of scale mode lambda seed in
    let inst = Scenario.instance_at s ~time_s:0.0 in
    let m =
      match m with
      | `Lp -> Method.Lp
      | `Pop -> Method.Pop 4
      | `Ecmp -> Method.Ecmp_wf
      | `Routing -> Method.Satellite_routing
    in
    let alloc, ms = Method.solve_timed m inst in
    Printf.printf "%s: satisfied=%.1f%% mlu=%.3f latency=%.1f ms\n" (Method.name m)
      (100.0 *. Allocation.satisfied_ratio inst alloc)
      (Allocation.mlu inst alloc)
      ms
  in
  let m =
    Arg.(value & opt method_conv `Lp
         & info [ "method" ] ~docv:"METHOD" ~doc:"One of lp, pop, ecmp, routing.")
  in
  Cmd.v
    (Cmd.info "solve" ~doc:"Run one TE computation with a chosen method")
    Term.(const run $ scale_arg $ mode_arg $ lambda_arg $ seed_arg $ m)

let () =
  let info =
    Cmd.info "sate" ~version:"1.0.0"
      ~doc:"Low-latency traffic engineering for satellite networks"
  in
  exit (Cmd.eval (Cmd.group info [ topology_cmd; traffic_cmd; train_cmd; eval_cmd; solve_cmd ]))
