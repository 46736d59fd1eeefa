module Instance = Sate_te.Instance
module Allocation = Sate_te.Allocation
module Rng = Sate_util.Rng

let solve_timed ?(k = 4) (inst : Instance.t) =
  let nc = Array.length inst.Instance.commodities in
  if nc = 0 then (Allocation.zeros inst, 0.0)
  else begin
    let k = max 1 (min k nc) in
    let rng = Rng.create 11 in
    let assignment = Array.init nc (fun _ -> Rng.int rng k) in
    let factor = 1.0 /. float_of_int k in
    let caps = Array.map (fun c -> c *. factor) inst.Instance.caps in
    let alloc = Allocation.zeros inst in
    let worst_ms = ref 0.0 in
    for part = 0 to k - 1 do
      let members =
        Array.to_list (Array.init nc Fun.id)
        |> List.filter (fun f -> assignment.(f) = part)
      in
      if members <> [] then begin
        let sub =
          { inst with
            Instance.commodities =
              Array.of_list (List.map (fun f -> inst.Instance.commodities.(f)) members);
            caps }
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
