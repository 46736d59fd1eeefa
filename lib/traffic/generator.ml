module Rng = Sate_util.Rng
module Heap = Sate_util.Heap
module Geo = Sate_geo.Geo
module Population = Sate_geo.Population
module Snapshot = Sate_topology.Snapshot
module Spatial_index = Sate_topology.Spatial_index

type config = {
  seed : int;
  gateway_flow_fraction : float;
}

let default_config = { seed = 7; gateway_flow_fraction = 0.4 }

(* Section 4: 1,000 gateways, 50 Mbps per user connection each way.
   Population smoothing gamma of Eq. 8 (Appendix G). *)
let gateway_count = 1000
let access_mbps = 50.0
let smoothing = 2.0

type flow = {
  id : int;
  cls : Flow_class.t;
  demand_mbps : float;
  src : Geo.vec3;
  dst : Geo.vec3;
  start_s : float;
  end_s : float;
  via_gateway : bool;
}

type t = {
  config : config;
  mutable lambda : float;
  rng : Rng.t;
  user_sampler : Population.sampler;
  gateways : (float * float) array;
  mutable now_s : float;
  mutable next_id : int;
  active : (int, flow) Hashtbl.t;
  expiries : int Heap.t; (* flow ids keyed by end time *)
}

let create ?(config = default_config) ~lambda () =
  let rng = Rng.create config.seed in
  let pop = Population.synthetic ~seed:config.seed in
  let user_sampler = Population.make_sampler pop ~smoothing ~land_only:false in
  let gateway_sampler = Population.make_sampler pop ~smoothing ~land_only:true in
  let gateways = Array.init gateway_count (fun _ -> Population.sample gateway_sampler rng) in
  { config;
    lambda;
    rng;
    user_sampler;
    gateways;
    now_s = 0.0;
    next_id = 0;
    active = Hashtbl.create 1024;
    expiries = Heap.create () }

let lambda t = t.lambda

let set_lambda t l = t.lambda <- l

let new_flow t ~start_s =
  let cls = Flow_class.sample_class t.rng in
  let via_gateway = Rng.float t.rng 1.0 < t.config.gateway_flow_fraction in
  let src_lat, src_lon =
    if via_gateway then Rng.pick t.rng t.gateways
    else Population.sample t.user_sampler t.rng
  in
  let dst_lat, dst_lon = Population.sample t.user_sampler t.rng in
  let ground lat_deg lon_deg = Geo.of_lat_lon ~lat_deg ~lon_deg ~alt_km:0.0 in
  let duration = Flow_class.sample_duration_s cls t.rng in
  let id = t.next_id in
  t.next_id <- id + 1;
  { id;
    cls;
    demand_mbps = Flow_class.demand_mbps cls;
    src = ground src_lat src_lon;
    dst = ground dst_lat dst_lon;
    start_s;
    end_s = start_s +. duration;
    via_gateway }

let expire t ~now =
  let rec loop () =
    match Heap.peek t.expiries with
    | Some (end_s, id) when end_s <= now ->
        ignore (Heap.pop t.expiries);
        Hashtbl.remove t.active id;
        loop ()
    | Some _ | None -> ()
  in
  loop ()

let advance t ~to_s =
  if to_s < t.now_s then invalid_arg "Generator.advance: time must be non-decreasing";
  let dt = to_s -. t.now_s in
  if dt > 0.0 then begin
    let n = Rng.poisson t.rng ~lambda:(t.lambda *. dt) in
    for _ = 1 to n do
      let start_s = t.now_s +. Rng.float t.rng dt in
      let f = new_flow t ~start_s in
      if f.end_s > to_s then begin
        Hashtbl.replace t.active f.id f;
        Heap.push t.expiries f.end_s f.id
      end
    done;
    t.now_s <- to_s;
    expire t ~now:to_s
  end

let active_flows t = Hashtbl.fold (fun _ f acc -> f :: acc) t.active []

let active_count t = Hashtbl.length t.active

let demand_at t snap =
  let num_sats = snap.Snapshot.num_sats in
  let index = Spatial_index.build snap.Snapshot.sat_positions in
  let attach p =
    match Spatial_index.nearest index p ~max_km:5000.0 with
    | Some (sat, _) -> sat
    | None -> invalid_arg "Generator.demand_at: no satellite within 5000 km"
  in
  let up_count = Array.make num_sats 0 in
  let down_count = Array.make num_sats 0 in
  let assoc =
    Hashtbl.fold
      (fun _ f acc ->
        let src = attach f.src in
        let dst = attach f.dst in
        if src = dst then acc
        else begin
          up_count.(src) <- up_count.(src) + 1;
          down_count.(dst) <- down_count.(dst) + 1;
          (src, dst, Float.min f.demand_mbps access_mbps) :: acc
        end)
      t.active []
  in
  let demand = Demand.of_assoc ~num_sats assoc in
  let caps = Array.map (fun c -> float_of_int c *. access_mbps) in
  (demand, caps up_count, caps down_count)
