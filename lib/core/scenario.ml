module Constellation = Sate_orbit.Constellation
module Builder = Sate_topology.Builder
module Generator = Sate_traffic.Generator
module Demand = Sate_traffic.Demand
module Path_db = Sate_paths.Path_db
module Instance = Sate_te.Instance

type config = {
  scale : int;
  cross_shell : Builder.cross_shell_mode;
  lambda : float;
  k : int;
  seed : int;
  warmup_s : float;
}

let default_config =
  { scale = 66;
    cross_shell = Builder.Lasers;
    lambda = 8.0;
    k = 4;
    seed = 7;
    warmup_s = 60.0 }

type t = {
  config : config;
  constellation : Constellation.t;
  builder : Builder.t;
  generator : Generator.t;
  mutable db : Path_db.t option;
  mutable last_recompute : int;
}

let create ?(config = default_config) () =
  let constellation = Constellation.of_scale config.scale in
  let builder =
    Builder.create
      ~config:{ Builder.default_config with Builder.cross_shell = config.cross_shell }
      constellation
  in
  let generator =
    Generator.create
      ~config:{ Generator.default_config with Generator.seed = config.seed }
      ~lambda:config.lambda ()
  in
  Generator.advance generator ~to_s:config.warmup_s;
  { config; constellation; builder; generator; db = None; last_recompute = 0 }

let config t = t.config

let constellation t = t.constellation

let instance_at t ~time_s =
  let snap = Builder.snapshot t.builder ~time_s in
  Generator.advance t.generator ~to_s:(time_s +. t.config.warmup_s);
  let demand, up, down = Generator.demand_at t.generator snap in
  let pairs = Demand.pairs demand in
  let db =
    match t.db with
    | None ->
        t.last_recompute <- List.length pairs;
        Path_db.compute t.constellation snap ~pairs ~k:t.config.k
    | Some db ->
        let db, recomputed = Path_db.update db snap in
        t.last_recompute <- recomputed;
        Path_db.add_pairs db snap pairs
  in
  t.db <- Some db;
  Instance.make ~up_caps:up ~down_caps:down snap demand db

let last_path_recompute_count t = t.last_recompute

let path_db t = t.db
