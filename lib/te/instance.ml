module Snapshot = Sate_topology.Snapshot
module Link = Sate_topology.Link
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
  caps : float array;
}

let make ?up_caps ?down_caps snapshot demand path_db =
  if Path_db.snapshot path_db != snapshot then
    invalid_arg "Instance.make: path store is not on this snapshot";
  let links = snapshot.Snapshot.links in
  let n_links = Array.length links and n = Snapshot.num_nodes snapshot in
  (* Node caps are given per satellite; relays keep unbounded caps. *)
  let caps = Array.make (n_links + (2 * n)) Float.infinity in
  Array.iteri (fun li (l : Link.t) -> caps.(li) <- l.Link.capacity_mbps) links;
  let blit at = Option.iter (fun c -> Array.blit c 0 caps at (min n (Array.length c))) in
  blit n_links up_caps;
  blit (n_links + n) down_caps;
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
  { snapshot; commodities; caps }

let of_demand ?up_caps ?down_caps constellation snapshot demand ~k =
  let db = Path_db.compute constellation snapshot ~pairs:(Demand.pairs demand) ~k in
  make ?up_caps ?down_caps snapshot demand db

let node_caps t =
  let n_links = Array.length t.snapshot.Snapshot.links and n = Snapshot.num_nodes t.snapshot in
  (Array.sub t.caps n_links n, Array.sub t.caps (n_links + n) n)

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
