module Instance = Sate_te.Instance
module Allocation = Sate_te.Allocation
module Rng = Sate_util.Rng

let solve (inst : Instance.t) =
  let rng = Rng.create 23 in
  let alloc = Allocation.zeros inst in
  (* Uncoordinated greedy: each commodity pushes its whole demand on
     one shortest candidate path, occasionally deflecting to a random
     alternative (queue-gradient noise).  No commodity sees the
     others, so congested hot spots emerge exactly as with distributed
     backpressure under load. *)
  Array.iteri
    (fun f (c : Instance.commodity) ->
      let n = Array.length c.Instance.paths in
      if n > 0 then begin
        let best = ref 0 in
        for p = 1 to n - 1 do
          if
            Sate_paths.Path.hops c.Instance.paths.(p)
            < Sate_paths.Path.hops c.Instance.paths.(!best)
          then best := p
        done;
        let choice = if n > 1 && Rng.float rng 1.0 < 0.2 then Rng.int rng n else !best in
        alloc.(f).(choice) <- c.Instance.demand_mbps
      end)
    inst.Instance.commodities;
  Allocation.trim inst alloc
