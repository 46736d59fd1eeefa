module Instance = Sate_te.Instance
module Allocation = Sate_te.Allocation
module Snapshot = Sate_topology.Snapshot
module Link = Sate_topology.Link
module Rng = Sate_util.Rng

let scale_snapshot (snap : Snapshot.t) factor =
  let links =
    Array.to_list snap.Snapshot.links
    |> List.map (fun l -> { l with Link.capacity_mbps = l.Link.capacity_mbps *. factor })
  in
  (* Links are passed in array order, so link indices (and therefore
     the commodities' [path_links]) stay valid. *)
  Snapshot.make ~time_s:snap.Snapshot.time_s ~num_sats:snap.Snapshot.num_sats
    ~sat_positions:snap.Snapshot.sat_positions
    ~relay_positions:snap.Snapshot.relay_positions ~links

let solve_timed ?(k = 4) (inst : Instance.t) =
  let nc = Array.length inst.Instance.commodities in
  if nc = 0 then (Allocation.zeros inst, 0.0)
  else begin
    let k = max 1 (min k nc) in
    let rng = Rng.create 11 in
    let assignment = Array.init nc (fun _ -> Rng.int rng k) in
    let factor = 1.0 /. float_of_int k in
    let scaled_snap = scale_snapshot inst.Instance.snapshot factor in
    let scale_caps = Array.map (fun c -> c *. factor) in
    let alloc = Allocation.zeros inst in
    let worst_ms = ref 0.0 in
    for part = 0 to k - 1 do
      let members =
        Array.to_list (Array.init nc Fun.id)
        |> List.filter (fun f -> assignment.(f) = part)
      in
      if members <> [] then begin
        let sub =
          { Instance.snapshot = scaled_snap;
            commodities =
              Array.of_list (List.map (fun f -> inst.Instance.commodities.(f)) members);
            up_caps = scale_caps inst.Instance.up_caps;
            down_caps = scale_caps inst.Instance.down_caps }
        in
        let t0 = Unix.gettimeofday () in
        let sub_alloc = Sate_te.Lp_solver.solve sub in
        worst_ms := Float.max !worst_ms ((Unix.gettimeofday () -. t0) *. 1000.0);
        List.iteri
          (fun si f -> Array.blit sub_alloc.(si) 0 alloc.(f) 0 (Array.length sub_alloc.(si)))
          members
      end
    done;
    (* Sub-allocations use 1/k capacities each, so the union is
       feasible; trim guards against numerical residue only. *)
    let alloc = if Allocation.is_feasible inst alloc then alloc else Allocation.trim inst alloc in
    (alloc, !worst_ms)
  end

let solve ?k inst = fst (solve_timed ?k inst)
