open Sate_tensor
module Instance = Sate_te.Instance
module Snapshot = Sate_topology.Snapshot
module Link = Sate_topology.Link
module Path = Sate_paths.Path

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

(* Two passes over the commodities: the first sizes every array, the
   second fills them commodity-major, then path, then hop. *)
let of_instance ?(with_access_relation = false) (inst : Instance.t) =
  let snap = inst.Instance.snapshot in
  let num_sats = Snapshot.num_nodes snap in
  let commodities = inst.Instance.commodities in
  let num_traffic = Array.length commodities in
  let num_paths = Instance.num_paths inst in
  let num_r2 = ref 0 and num_incidence = ref 0 in
  Array.iter
    (fun (c : Instance.commodity) ->
      Array.iter
        (fun (path : Path.t) -> num_r2 := !num_r2 + Array.length path.Path.nodes)
        c.Instance.paths;
      Array.iter
        (fun links -> num_incidence := !num_incidence + Array.length links)
        c.Instance.path_links)
    commodities;
  let path_commodity = Array.make num_paths 0 in
  let path_demand = Array.make num_paths 0.0 in
  let path_feat = Tensor.create num_paths 1 in
  (* R2: path <-> satellites it crosses. *)
  let r2 =
    { src = Array.make !num_r2 0; dst = Array.make !num_r2 0; feat = Tensor.create !num_r2 1 }
  in
  (* R3: path <-> its traffic demand, one edge per path node. *)
  let r3 =
    { src = Array.init num_paths Fun.id;
      dst = Array.make num_paths 0;
      feat = Tensor.create num_paths 1 }
  in
  (* Incidence for the loss: (path, snapshot link) pairs. *)
  let incidence_path = Array.make !num_incidence 0 in
  let incidence_link = Array.make !num_incidence 0 in
  let node = ref 0 and e2 = ref 0 and entry = ref 0 in
  Array.iteri
    (fun f (c : Instance.commodity) ->
      let k = float_of_int (Array.length c.Instance.paths) in
      Array.iteri
        (fun pi (path : Path.t) ->
          let p = !node in
          path_commodity.(p) <- f;
          path_demand.(p) <- c.Instance.demand_mbps;
          let hops = float_of_int (Path.hops path) in
          path_feat.Tensor.data.(p) <- hops /. 10.0;
          (* Loops, not closures: a closure per path would box [hops]. *)
          let nodes = path.Path.nodes in
          for hop = 0 to Array.length nodes - 1 do
            r2.src.(!e2) <- p;
            r2.dst.(!e2) <- nodes.(hop);
            r2.feat.Tensor.data.(!e2) <- float_of_int hop /. Float.max 1.0 hops;
            incr e2
          done;
          r3.dst.(p) <- f;
          r3.feat.Tensor.data.(p) <- k /. 10.0;
          let hop_links = c.Instance.path_links.(pi) in
          for j = 0 to Array.length hop_links - 1 do
            incidence_path.(!entry) <- p;
            incidence_link.(!entry) <- hop_links.(j);
            incr entry
          done;
          incr node)
        c.Instance.paths)
    commodities;
  (* R1: one directed edge pair per live link, its feature the link's
     capacity in [Instance.caps]. *)
  let links = snap.Snapshot.links in
  let link_caps = Array.sub inst.Instance.caps 0 (Array.length links) in
  let m1 = 2 * Array.length links in
  let r1_src = Array.make m1 0 in
  let r1_dst = Array.make m1 0 in
  let r1_feat = Tensor.create m1 1 in
  Array.iteri
    (fun i (l : Link.t) ->
      r1_src.(2 * i) <- l.Link.u;
      r1_dst.(2 * i) <- l.Link.v;
      r1_src.((2 * i) + 1) <- l.Link.v;
      r1_dst.((2 * i) + 1) <- l.Link.u;
      let f = link_caps.(i) /. capacity_scale in
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
  let access =
    if not with_access_relation then None
    else
      (* Redundant access relation: traffic -> its source, then its
         destination satellite. *)
      let endpoint i =
        let c = commodities.(i / 2) in
        if i mod 2 = 0 then c.Instance.src else c.Instance.dst
      in
      Some
        { src = Array.init (2 * num_traffic) (fun i -> i / 2);
          dst = Array.init (2 * num_traffic) endpoint;
          feat =
            Tensor.init (2 * num_traffic) 1 (fun i _ ->
                commodities.(i / 2).Instance.demand_mbps /. demand_scale) }
  in
  { num_sats;
    num_paths;
    num_traffic;
    sat_feat;
    path_feat;
    traffic_feat;
    r1 = { src = r1_src; dst = r1_dst; feat = r1_feat };
    r2;
    r3;
    access;
    path_commodity;
    path_demand;
    incidence_path;
    incidence_link;
    link_caps }
