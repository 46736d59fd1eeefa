module Snapshot = Sate_topology.Snapshot
module Link = Sate_topology.Link
module Path = Sate_paths.Path

type t = float array array

let zeros (inst : Instance.t) =
  Array.map (fun c -> Array.make (Array.length c.Instance.paths) 0.0) inst.Instance.commodities

let scale_to_demand (inst : Instance.t) alloc =
  Array.mapi
    (fun f rates ->
      let rates = Array.map (fun r -> Float.max 0.0 r) rates in
      let total = Array.fold_left ( +. ) 0.0 rates in
      let demand = inst.Instance.commodities.(f).Instance.demand_mbps in
      if total > demand && total > 0.0 then
        let factor = demand /. total in
        Array.map (fun r -> r *. factor) rates
      else rates)
    alloc

let link_loads (inst : Instance.t) alloc =
  let loads = Array.make (Array.length inst.Instance.snapshot.Snapshot.links) 0.0 in
  Array.iteri
    (fun f rates ->
      let c = inst.Instance.commodities.(f) in
      Array.iteri
        (fun p rate ->
          if rate > 0.0 then
            Array.iter (fun li -> loads.(li) <- loads.(li) +. rate) c.Instance.path_links.(p))
        rates)
    alloc;
  loads

let node_loads (inst : Instance.t) alloc =
  let n = Snapshot.num_nodes inst.Instance.snapshot in
  let up = Array.make n 0.0 and down = Array.make n 0.0 in
  Array.iteri
    (fun f rates ->
      let c = inst.Instance.commodities.(f) in
      let total = Array.fold_left ( +. ) 0.0 rates in
      up.(c.Instance.src) <- up.(c.Instance.src) +. total;
      down.(c.Instance.dst) <- down.(c.Instance.dst) +. total)
    alloc;
  (up, down)

type violation =
  | Negative_rate of { commodity : int; path : int; rate : float }
  | Demand_exceeded of { commodity : int; total : float; demand : float }
  | Link_overload of { link : int; load : float; capacity : float }
  | Uplink_overload of { node : int; load : float; capacity : float }
  | Downlink_overload of { node : int; load : float; capacity : float }

let violation_to_string = function
  | Negative_rate { commodity; path; rate } ->
      Printf.sprintf "commodity %d path %d: negative rate %.6g" commodity path
        rate
  | Demand_exceeded { commodity; total; demand } ->
      Printf.sprintf "commodity %d: allocated %.6g exceeds demand %.6g"
        commodity total demand
  | Link_overload { link; load; capacity } ->
      Printf.sprintf "link %d: load %.6g exceeds capacity %.6g" link load
        capacity
  | Uplink_overload { node; load; capacity } ->
      Printf.sprintf "node %d: uplink load %.6g exceeds capacity %.6g" node
        load capacity
  | Downlink_overload { node; load; capacity } ->
      Printf.sprintf "node %d: downlink load %.6g exceeds capacity %.6g" node
        load capacity

let eps = 1e-6

let violations (inst : Instance.t) alloc =
  let out = ref [] in
  let push v = out := v :: !out in
  Array.iteri
    (fun f rates ->
      let c = inst.Instance.commodities.(f) in
      let total = ref 0.0 in
      Array.iteri
        (fun p r ->
          if r < -.eps then push (Negative_rate { commodity = f; path = p; rate = r });
          total := !total +. r)
        rates;
      if !total > c.Instance.demand_mbps +. eps then
        push
          (Demand_exceeded
             { commodity = f; total = !total; demand = c.Instance.demand_mbps }))
    alloc;
  let loads = link_loads inst alloc in
  Array.iteri
    (fun li load ->
      let cap = inst.Instance.snapshot.Snapshot.links.(li).Link.capacity_mbps in
      if load > cap +. eps then
        push (Link_overload { link = li; load; capacity = cap }))
    loads;
  let up, down = node_loads inst alloc in
  Array.iteri
    (fun n l ->
      if l > inst.Instance.up_caps.(n) +. eps then
        push (Uplink_overload { node = n; load = l; capacity = inst.Instance.up_caps.(n) }))
    up;
  Array.iteri
    (fun n l ->
      if l > inst.Instance.down_caps.(n) +. eps then
        push
          (Downlink_overload
             { node = n; load = l; capacity = inst.Instance.down_caps.(n) }))
    down;
  List.rev !out

let is_feasible (inst : Instance.t) alloc = violations inst alloc = []

(* Proportional smoothing: scale every path flow by the worst
   overload factor among the resources it touches.  Keeps relative
   shares fair before the exact pass. *)
let proportional_pass (inst : Instance.t) alloc =
  let loads = link_loads inst alloc in
  let up, down = node_loads inst alloc in
  let link_factor li =
    let cap = inst.Instance.snapshot.Snapshot.links.(li).Link.capacity_mbps in
    if loads.(li) > cap && loads.(li) > 0.0 then cap /. loads.(li) else 1.0
  in
  let node_factor caps loads n =
    if loads.(n) > caps.(n) && loads.(n) > 0.0 then caps.(n) /. loads.(n) else 1.0
  in
  Array.mapi
    (fun f rates ->
      let c = inst.Instance.commodities.(f) in
      Array.mapi
        (fun p rate ->
          if rate <= 0.0 then 0.0
          else begin
            let factor = ref 1.0 in
            Array.iter
              (fun li -> factor := Float.min !factor (link_factor li))
              c.Instance.path_links.(p);
            factor := Float.min !factor (node_factor inst.Instance.up_caps up c.Instance.src);
            factor := Float.min !factor (node_factor inst.Instance.down_caps down c.Instance.dst);
            rate *. !factor
          end)
        rates)
    alloc

(* Exact sequential pass: walk flows in order, clipping each to the
   remaining capacity of every resource it uses.  Guarantees
   feasibility. *)
let exact_pass (inst : Instance.t) alloc =
  let remaining_link =
    Array.map (fun l -> l.Link.capacity_mbps) inst.Instance.snapshot.Snapshot.links
  in
  let remaining_up = Array.copy inst.Instance.up_caps in
  let remaining_down = Array.copy inst.Instance.down_caps in
  Array.mapi
    (fun f rates ->
      let c = inst.Instance.commodities.(f) in
      let remaining_demand = ref c.Instance.demand_mbps in
      Array.mapi
        (fun p rate ->
          if rate <= 0.0 then 0.0
          else begin
            let headroom = ref (Float.min rate !remaining_demand) in
            Array.iter
              (fun li -> headroom := Float.min !headroom remaining_link.(li))
              c.Instance.path_links.(p);
            headroom := Float.min !headroom remaining_up.(c.Instance.src);
            headroom := Float.min !headroom remaining_down.(c.Instance.dst);
            let final = Float.max 0.0 !headroom in
            if final > 0.0 then begin
              Array.iter
                (fun li -> remaining_link.(li) <- remaining_link.(li) -. final)
                c.Instance.path_links.(p);
              remaining_up.(c.Instance.src) <- remaining_up.(c.Instance.src) -. final;
              remaining_down.(c.Instance.dst) <- remaining_down.(c.Instance.dst) -. final;
              remaining_demand := !remaining_demand -. final
            end;
            final
          end)
        rates)
    alloc

let trim inst alloc =
  let alloc = scale_to_demand inst alloc in
  let alloc = proportional_pass inst alloc in
  exact_pass inst alloc

let total_flow alloc =
  Array.fold_left
    (fun acc rates -> acc +. Array.fold_left ( +. ) 0.0 rates)
    0.0 alloc

let satisfied_ratio inst alloc =
  let demand = Instance.total_demand inst in
  if demand <= 0.0 then 1.0 else total_flow alloc /. demand

let per_commodity_ratio (inst : Instance.t) alloc =
  Array.mapi
    (fun f rates ->
      let d = inst.Instance.commodities.(f).Instance.demand_mbps in
      if d <= 0.0 then 1.0 else Array.fold_left ( +. ) 0.0 rates /. d)
    alloc

let mlu inst alloc =
  let loads = link_loads inst alloc in
  let worst = ref 0.0 in
  Array.iteri
    (fun li load ->
      let cap = inst.Instance.snapshot.Snapshot.links.(li).Link.capacity_mbps in
      if Float.is_finite cap && cap > 0.0 then
        worst := Float.max !worst (load /. cap))
    loads;
  !worst

let scale_to_full_demand (inst : Instance.t) alloc =
  Array.mapi
    (fun f rates ->
      let c = inst.Instance.commodities.(f) in
      let n = Array.length rates in
      if n = 0 then rates
      else begin
        let total = Array.fold_left (fun acc r -> acc +. Float.max 0.0 r) 0.0 rates in
        if total > 1e-9 then
          Array.map (fun r -> Float.max 0.0 r *. c.Instance.demand_mbps /. total) rates
        else Array.make n (c.Instance.demand_mbps /. float_of_int n)
      end)
    alloc
