module Instance = Sate_te.Instance
module Allocation = Sate_te.Allocation
module Rng = Sate_util.Rng

let subproblems ?(k = 4) (inst : Instance.t) =
  let nc = Array.length inst.Instance.commodities in
  let k = max 1 (min k nc) in
  let rng = Rng.create 11 in
  let assignment = Array.init nc (fun _ -> Rng.int rng k) in
  let factor = 1.0 /. float_of_int k in
  let caps = Array.map (fun c -> c *. factor) inst.Instance.caps in
  List.init k (fun part ->
      let members =
        Array.of_list (List.filter (fun f -> assignment.(f) = part) (List.init nc Fun.id))
      in
      let commodities = Array.map (fun f -> inst.Instance.commodities.(f)) members in
      ({ inst with Instance.commodities; caps }, members))
  |> List.filter (fun (_, members) -> members <> [||])

let solve ?k inst =
  let alloc = Allocation.zeros inst in
  List.iter
    (fun (sub, members) ->
      let sub_alloc = Sate_te.Lp_solver.solve sub in
      Array.iteri
        (fun si f -> Array.blit sub_alloc.(si) 0 alloc.(f) 0 (Array.length sub_alloc.(si)))
        members)
    (subproblems ?k inst);
  (* Sub-allocations use 1/k capacities each, so the union is
     feasible; trim guards against numerical residue only. *)
  if Allocation.is_feasible inst alloc then alloc else Allocation.trim inst alloc
