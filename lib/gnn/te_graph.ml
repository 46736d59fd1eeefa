open Sate_tensor
module Instance = Sate_te.Instance
module Snapshot = Sate_topology.Snapshot
module Link = Sate_topology.Link

type edges = { src : int array; dst : int array; feat : Tensor.t }

type t = {
  num_sats : int;
  num_paths : int;
  num_traffic : int;
  sat_feat : Tensor.t;
  path_feat : Tensor.t;
  traffic_feat : Tensor.t;
  r1 : edges;
  r2 : edges;
  r3 : edges;
  access : edges option;
  path_commodity : int array;
  path_demand : float array;
  incidence_path : int array;
  incidence_link : int array;
  link_caps : float array;
}

let demand_scale = 100.0

let capacity_scale = 200.0

let reverse e = { e with src = e.dst; dst = e.src }

let of_instance ?(with_access_relation = false) (inst : Instance.t) =
  let snap = inst.Instance.snapshot in
  let num_sats = Snapshot.num_nodes snap in
  let commodities = inst.Instance.commodities in
  let num_traffic = Array.length commodities in
  (* Path nodes flattened commodity-major. *)
  let num_paths =
    Array.fold_left (fun acc c -> acc + Array.length c.Instance.paths) 0 commodities
  in
  let path_commodity = Array.make num_paths 0 in
  let path_demand = Array.make num_paths 0.0 in
  let path_len = Array.make num_paths 0.0 in
  (* R2: path <-> satellites it crosses. *)
  let r2_src = ref [] and r2_dst = ref [] and r2_feat = ref [] in
  (* R3: path <-> its traffic demand. *)
  let r3_src = ref [] and r3_dst = ref [] and r3_feat = ref [] in
  (* Incidence for the loss: (path, used-link) pairs. *)
  let used = Instance.used_links inst in
  let link_pos = Hashtbl.create (Array.length used) in
  Array.iteri (fun pos li -> Hashtbl.replace link_pos li pos) used;
  let inc_path = ref [] and inc_link = ref [] in
  let p = ref 0 in
  Array.iteri
    (fun f (c : Instance.commodity) ->
      let k = float_of_int (Array.length c.Instance.paths) in
      Array.iteri
        (fun pi (path : Sate_paths.Path.t) ->
          let node = !p in
          path_commodity.(node) <- f;
          path_demand.(node) <- c.Instance.demand_mbps;
          let hops = float_of_int (Sate_paths.Path.hops path) in
          path_len.(node) <- hops /. 10.0;
          Array.iteri
            (fun hop sat ->
              r2_src := node :: !r2_src;
              r2_dst := sat :: !r2_dst;
              r2_feat :=
                (float_of_int hop /. Float.max 1.0 hops) :: !r2_feat)
            path.Sate_paths.Path.nodes;
          r3_src := node :: !r3_src;
          r3_dst := f :: !r3_dst;
          r3_feat := (k /. 10.0) :: !r3_feat;
          Array.iter
            (fun li ->
              inc_path := node :: !inc_path;
              inc_link := Hashtbl.find link_pos li :: !inc_link)
            c.Instance.path_links.(pi);
          incr p)
        c.Instance.paths)
    commodities;
  (* R1: one directed edge pair per live link. *)
  let links = snap.Snapshot.links in
  let m1 = 2 * Array.length links in
  let r1_src = Array.make (max m1 0) 0 in
  let r1_dst = Array.make (max m1 0) 0 in
  let r1_feat = Tensor.create (max m1 0) 1 in
  Array.iteri
    (fun i (l : Link.t) ->
      r1_src.(2 * i) <- l.Link.u;
      r1_dst.(2 * i) <- l.Link.v;
      r1_src.((2 * i) + 1) <- l.Link.v;
      r1_dst.((2 * i) + 1) <- l.Link.u;
      let f = l.Link.capacity_mbps /. capacity_scale in
      Tensor.set r1_feat (2 * i) 0 f;
      Tensor.set r1_feat ((2 * i) + 1) 0 f)
    links;
  let sat_feat =
    Tensor.init num_sats 1 (fun i _ -> float_of_int (Snapshot.degree snap i) /. 4.0)
  in
  let traffic_feat =
    Tensor.init num_traffic 1 (fun f _ ->
        commodities.(f).Instance.demand_mbps /. demand_scale)
  in
  let to_edges src dst feat =
    { src = Array.of_list (List.rev src);
      dst = Array.of_list (List.rev dst);
      feat = Tensor.of_column (Array.of_list (List.rev feat)) }
  in
  let access =
    if not with_access_relation then None
    else begin
      (* Redundant access relation: traffic -> its endpoint satellites. *)
      let src = ref [] and dst = ref [] and feat = ref [] in
      Array.iteri
        (fun f (c : Instance.commodity) ->
          src := f :: f :: !src;
          dst := c.Instance.dst :: c.Instance.src :: !dst;
          feat :=
            (c.Instance.demand_mbps /. demand_scale)
            :: (c.Instance.demand_mbps /. demand_scale)
            :: !feat)
        commodities;
      Some (to_edges !src !dst !feat)
    end
  in
  { num_sats;
    num_paths;
    num_traffic;
    sat_feat;
    path_feat = Tensor.of_column path_len;
    traffic_feat;
    r1 = { src = r1_src; dst = r1_dst; feat = r1_feat };
    r2 = to_edges !r2_src !r2_dst !r2_feat;
    r3 = to_edges !r3_src !r3_dst !r3_feat;
    access;
    path_commodity;
    path_demand;
    incidence_path = Array.of_list (List.rev !inc_path);
    incidence_link = Array.of_list (List.rev !inc_link);
    link_caps = Array.map (fun li -> links.(li).Link.capacity_mbps) used }
