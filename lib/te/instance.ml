module Snapshot = Sate_topology.Snapshot
module Demand = Sate_traffic.Demand
module Path = Sate_paths.Path
module Path_db = Sate_paths.Path_db

type commodity = {
  src : int;
  dst : int;
  demand_mbps : float;
  paths : Path.t array;
  path_links : int array array;
}

type t = {
  snapshot : Snapshot.t;
  commodities : commodity array;
  up_caps : float array;
  down_caps : float array;
}

let make ?up_caps ?down_caps snapshot demand path_db =
  if Path_db.snapshot path_db != snapshot then
    invalid_arg "Instance.make: path store is not on this snapshot";
  let n = Snapshot.num_nodes snapshot in
  let caps = function
    | Some c when Array.length c >= n -> c
    | given ->
        (* Caps computed per satellite; relays get unbounded caps. *)
        let ext = Array.make n Float.infinity in
        Option.iter (fun c -> Array.blit c 0 ext 0 (Array.length c)) given;
        ext
  in
  let up_caps = caps up_caps and down_caps = caps down_caps in
  let commodities =
    Array.map
      (fun (e : Demand.entry) ->
        let { Path_db.paths; links = path_links } =
          Path_db.find path_db ~src:e.Demand.src ~dst:e.Demand.dst
        in
        { src = e.Demand.src;
          dst = e.Demand.dst;
          demand_mbps = e.Demand.demand_mbps;
          paths;
          path_links })
      demand.Demand.entries
  in
  { snapshot; commodities; up_caps; down_caps }

let of_demand ?up_caps ?down_caps constellation snapshot demand ~k =
  let db = Path_db.compute constellation snapshot ~pairs:(Demand.pairs demand) ~k in
  make ?up_caps ?down_caps snapshot demand db

let demand t =
  Demand.of_assoc ~num_sats:t.snapshot.Snapshot.num_sats
    (Array.to_list
       (Array.map (fun c -> (c.src, c.dst, c.demand_mbps)) t.commodities))

let num_commodities t = Array.length t.commodities

let num_paths t =
  Array.fold_left (fun acc c -> acc + Array.length c.paths) 0 t.commodities

let total_demand t =
  Array.fold_left (fun acc c -> acc +. c.demand_mbps) 0.0 t.commodities

let routable_demand t =
  Array.fold_left
    (fun acc c -> if Array.length c.paths > 0 then acc +. c.demand_mbps else acc)
    0.0 t.commodities
