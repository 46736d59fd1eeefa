(* Online TE under computation delay: the headline experiment shape of
   Sec. 5.4.  The same network serves fluctuating traffic while each
   method recomputes at its own cadence; slow methods serve stale
   allocations whose paths rot and whose flows have departed.

   Run with:  dune exec examples/online_te.exe *)

module Scenario = Sate_core.Scenario
module Method = Sate_core.Method
module Online = Sate_core.Online
module Model = Sate_gnn.Model
module Trainer = Sate_gnn.Trainer

let () =
  let lambda = 12.0 in
  Printf.printf "online TE, 66 satellites, %.0f flows/s, 45 s horizon\n%!" lambda;
  (* Train a SaTE model on earlier traffic from the same regime. *)
  let train_scenario =
    Scenario.create ~config:{ Scenario.default_config with Scenario.lambda = lambda } ()
  in
  let samples =
    List.init 4 (fun i ->
        Trainer.make_sample
          (Scenario.instance_at train_scenario ~time_s:(float_of_int i *. 8.0)))
  in
  let model = Model.create ~seed:1 () in
  Printf.printf "training SaTE...\n%!";
  ignore (Trainer.train ~epochs:30 model samples);
  (* Replay each method at the latency the paper measured on Starlink
     (Gurobi 47 s, POP 25 s, ECMP+WF 54 s; SaTE 17 ms). *)
  List.iter
    (fun m ->
      let s =
        Scenario.create
          ~config:{ Scenario.default_config with Scenario.lambda = lambda }
          ()
      in
      let r =
        Online.evaluate ?latency_override_ms:(Method.starlink_latency_ms m)
          ~duration_s:45.0 s m
      in
      Printf.printf "%-18s online satisfied=%5.1f%%  (TE rounds started: %d)\n%!"
        r.Online.method_name
        (100.0 *. r.Online.mean_satisfied)
        r.Online.recomputations)
    [ Method.Sate model; Method.Lp; Method.Pop 4; Method.Ecmp_wf; Method.Satellite_routing ];
  print_endline "low computation latency converts directly into satisfied demand."
