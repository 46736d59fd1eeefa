module Snapshot = Sate_topology.Snapshot
module Path = Sate_paths.Path

type t = float array array

let zeros (inst : Instance.t) =
  Array.map (fun c -> Array.make (Array.length c.Instance.paths) 0.0) inst.Instance.commodities

let of_ratios (inst : Instance.t) ratios =
  if Array.length ratios <> Instance.num_paths inst then
    invalid_arg "Allocation.of_ratios: not one ratio per path";
  let first = ref 0 in
  Array.map
    (fun c ->
      let at = !first and demand = c.Instance.demand_mbps in
      first := at + Array.length c.Instance.paths;
      Array.init (Array.length c.Instance.paths) (fun p -> demand *. ratios.(at + p)))
    inst.Instance.commodities

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

(* [Instance.caps] layout: [n_links] links, then [n] uplinks, then
   [n] downlinks. *)
let layout (inst : Instance.t) =
  (Array.length inst.Instance.snapshot.Snapshot.links, Snapshot.num_nodes inst.Instance.snapshot)

let loads (inst : Instance.t) alloc =
  let n_links, n = layout inst in
  let loads = Array.make (Array.length inst.Instance.caps) 0.0 in
  Array.iteri
    (fun f rates ->
      let c = inst.Instance.commodities.(f) in
      Array.iteri
        (fun p rate ->
          if rate > 0.0 then
            Array.iter (fun li -> loads.(li) <- loads.(li) +. rate) c.Instance.path_links.(p))
        rates;
      let total = Array.fold_left ( +. ) 0.0 rates in
      let up = n_links + c.Instance.src and down = n_links + n + c.Instance.dst in
      loads.(up) <- loads.(up) +. total;
      loads.(down) <- loads.(down) +. total)
    alloc;
  loads

(* [f] over the resources that path [p] of [c] uses, in resource
   order: its links, its source's uplink, its destination's
   downlink. *)
let iter_resources (n_links, n) (c : Instance.commodity) p f =
  Array.iter f c.Instance.path_links.(p);
  f (n_links + c.Instance.src);
  f (n_links + n + c.Instance.dst)

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
  let n_links, n = layout inst in
  Array.iteri
    (fun r load ->
      let capacity = inst.Instance.caps.(r) in
      if load > capacity +. eps then
        push
          (if r < n_links then Link_overload { link = r; load; capacity }
           else if r < n_links + n then Uplink_overload { node = r - n_links; load; capacity }
           else Downlink_overload { node = r - n_links - n; load; capacity }))
    (loads inst alloc);
  List.rev !out

let is_feasible (inst : Instance.t) alloc = violations inst alloc = []

(* Proportional smoothing: scale every path flow by the worst
   overload factor among the resources it touches.  Keeps relative
   shares fair before the exact pass. *)
let proportional_pass (inst : Instance.t) alloc =
  let caps = inst.Instance.caps and loads = loads inst alloc in
  let factor r = if loads.(r) > caps.(r) && loads.(r) > 0.0 then caps.(r) /. loads.(r) else 1.0 in
  let layout = layout inst in
  Array.mapi
    (fun f rates ->
      let c = inst.Instance.commodities.(f) in
      Array.mapi
        (fun p rate ->
          if rate <= 0.0 then 0.0
          else begin
            let worst = ref 1.0 in
            iter_resources layout c p (fun r -> worst := Float.min !worst (factor r));
            rate *. !worst
          end)
        rates)
    alloc

(* Exact sequential pass: walk flows in order, clipping each to the
   remaining capacity of every resource it uses.  Guarantees
   feasibility. *)
let exact_pass (inst : Instance.t) alloc =
  let remaining = Array.copy inst.Instance.caps in
  let layout = layout inst in
  Array.mapi
    (fun f rates ->
      let c = inst.Instance.commodities.(f) in
      let remaining_demand = ref c.Instance.demand_mbps in
      Array.mapi
        (fun p rate ->
          if rate <= 0.0 then 0.0
          else begin
            let headroom = ref (Float.min rate !remaining_demand) in
            iter_resources layout c p (fun r -> headroom := Float.min !headroom remaining.(r));
            let final = Float.max 0.0 !headroom in
            if final > 0.0 then begin
              iter_resources layout c p (fun r -> remaining.(r) <- remaining.(r) -. final);
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

let mlu (inst : Instance.t) alloc =
  let loads = loads inst alloc in
  let worst = ref 0.0 in
  for li = 0 to Array.length inst.Instance.snapshot.Snapshot.links - 1 do
    let cap = inst.Instance.caps.(li) in
    if Float.is_finite cap && cap > 0.0 then worst := Float.max !worst (loads.(li) /. cap)
  done;
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
