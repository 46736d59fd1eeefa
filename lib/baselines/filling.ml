module Instance = Sate_te.Instance
module Allocation = Sate_te.Allocation
module Snapshot = Sate_topology.Snapshot

let eps = 1e-9

let solve ~path_choice (inst : Instance.t) =
  let alloc = Allocation.zeros inst in
  let commodities = inst.Instance.commodities in
  let nc = Array.length commodities in
  let n_links = Array.length inst.Instance.snapshot.Snapshot.links in
  let n = Snapshot.num_nodes inst.Instance.snapshot in
  (* Headroom per resource of [Instance.caps]: links, uplinks,
     downlinks. *)
  let headroom = Array.copy inst.Instance.caps in
  let remaining = Array.map (fun c -> c.Instance.demand_mbps) commodities in
  let active_paths = Array.map path_choice commodities in
  let active = Array.map (fun ps -> ps <> [] ) active_paths in
  Array.iteri (fun f r -> if r <= eps then active.(f) <- false) remaining;
  let any_active () = Array.exists Fun.id active in
  let guard = ref (n_links + (nc * 5) + 16) in
  while any_active () && !guard > 0 do
    decr guard;
    (* Per-unit-increment load coefficient on every resource: a link
       takes each active path's share, an endpoint the whole
       increment. *)
    let coeff = Array.make (Array.length headroom) 0.0 in
    Array.iteri
      (fun f (c : Instance.commodity) ->
        if active.(f) then begin
          let share = 1.0 /. float_of_int (List.length active_paths.(f)) in
          List.iter
            (fun p ->
              Array.iter
                (fun li -> coeff.(li) <- coeff.(li) +. share)
                c.Instance.path_links.(p))
            active_paths.(f);
          let up = n_links + c.Instance.src and down = n_links + n + c.Instance.dst in
          coeff.(up) <- coeff.(up) +. 1.0;
          coeff.(down) <- coeff.(down) +. 1.0
        end)
      commodities;
    (* Largest uniform increment before something saturates; an
       unbounded resource never does. *)
    let t = ref Float.infinity in
    Array.iteri (fun r k -> if k > eps then t := Float.min !t (headroom.(r) /. k)) coeff;
    Array.iteri (fun f r -> if active.(f) then t := Float.min !t r) remaining;
    let t = if Float.is_finite !t then Float.max 0.0 !t else 0.0 in
    (* Apply the increment. *)
    Array.iteri
      (fun f (c : Instance.commodity) ->
        if active.(f) then begin
          let share = t /. float_of_int (List.length active_paths.(f)) in
          List.iter
            (fun p ->
              alloc.(f).(p) <- alloc.(f).(p) +. share;
              Array.iter
                (fun li -> headroom.(li) <- headroom.(li) -. share)
                c.Instance.path_links.(p))
            active_paths.(f);
          let up = n_links + c.Instance.src and down = n_links + n + c.Instance.dst in
          headroom.(up) <- headroom.(up) -. t;
          headroom.(down) <- headroom.(down) -. t;
          remaining.(f) <- remaining.(f) -. t
        end)
      commodities;
    (* Freeze saturated paths and satisfied/blocked commodities. *)
    Array.iteri
      (fun f (c : Instance.commodity) ->
        if active.(f) then begin
          if remaining.(f) <= eps then active.(f) <- false
          else begin
            active_paths.(f) <-
              List.filter
                (fun p ->
                  Array.for_all
                    (fun li -> headroom.(li) > eps)
                    c.Instance.path_links.(p))
                active_paths.(f);
            if
              active_paths.(f) = []
              || headroom.(n_links + c.Instance.src) <= eps
              || headroom.(n_links + n + c.Instance.dst) <= eps
            then active.(f) <- false
          end
        end)
      commodities
  done;
  (* Numerical safety: never hand out an infeasible allocation. *)
  if Allocation.is_feasible inst alloc then alloc else Allocation.trim inst alloc

let min_hop_paths (c : Instance.commodity) =
  if Array.length c.Instance.paths = 0 then []
  else begin
    let min_hops =
      Array.fold_left
        (fun acc p -> min acc (Sate_paths.Path.hops p))
        max_int c.Instance.paths
    in
    List.filter
      (fun p -> Sate_paths.Path.hops c.Instance.paths.(p) = min_hops)
      (List.init (Array.length c.Instance.paths) Fun.id)
  end

let all_paths (c : Instance.commodity) =
  List.init (Array.length c.Instance.paths) Fun.id
