module Allocation = Sate_te.Allocation
module Lp_solver = Sate_te.Lp_solver

let satisfied m instances =
  match instances with
  | [] -> 0.0
  | _ ->
      let total =
        List.fold_left
          (fun acc inst ->
            acc +. Allocation.satisfied_ratio inst (Method.solve m inst))
          0.0 instances
      in
      total /. float_of_int (List.length instances)

let mlu m instances =
  match instances with
  | [] -> 0.0
  | _ ->
      let total =
        List.fold_left
          (fun acc inst ->
            let value =
              match m with
              | Method.Lp ->
                  snd (Lp_solver.solve_with_value ~objective:Lp_solver.Min_mlu inst)
              | Method.Sate_mlu model ->
                  (* MLU is only comparable between allocations that
                     carry the same traffic: take the raw (untrimmed)
                     split and scale it to route all demand, exactly
                     like the MLU LP's equality constraints. *)
                  let raw = Allocation.of_ratios inst (Sate_gnn.Model.ratios model inst) in
                  Allocation.mlu inst (Allocation.scale_to_full_demand inst raw)
              | Method.Lp_utility | Method.Pop _ | Method.Ecmp_wf | Method.Max_min
              | Method.Satellite_routing | Method.Sate _ | Method.Teal _
              | Method.Harp _ ->
                  Allocation.mlu inst
                    (Allocation.scale_to_full_demand inst (Method.solve m inst))
            in
            acc +. value)
          0.0 instances
      in
      total /. float_of_int (List.length instances)
