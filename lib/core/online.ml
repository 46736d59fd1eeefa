module Instance = Sate_te.Instance
module Allocation = Sate_te.Allocation
module Path = Sate_paths.Path

type report = {
  method_name : string;
  mean_satisfied : float;
  per_tick : (float * float) list;
  recomputations : int;
  violations : int;
}

let carryover (old_inst : Instance.t) old_alloc (new_inst : Instance.t) =
  (* Index old rates by (src, dst, path nodes). *)
  let table = Hashtbl.create 256 in
  Array.iteri
    (fun f rates ->
      let c = old_inst.Instance.commodities.(f) in
      Array.iteri
        (fun p rate ->
          if rate > 0.0 then
            Hashtbl.replace table
              (c.Instance.src, c.Instance.dst, c.Instance.paths.(p).Path.nodes)
              rate)
        rates)
    old_alloc;
  let alloc = Allocation.zeros new_inst in
  Array.iteri
    (fun f rates ->
      let c = new_inst.Instance.commodities.(f) in
      Array.iteri
        (fun p _ ->
          match
            Hashtbl.find_opt table
              (c.Instance.src, c.Instance.dst, c.Instance.paths.(p).Path.nodes)
          with
          | Some rate -> rates.(p) <- rate
          | None -> ())
        rates)
    alloc;
  Allocation.trim new_inst alloc

(* What the loop carries from one tick to the next. *)
type state = {
  active : (Instance.t * Allocation.t) option;  (* in effect; None before t = 0 *)
  pending : (float * (Instance.t * Allocation.t)) option;  (* landing time, result *)
  per_tick : (float * float) list;  (* newest first *)
  recomputations : int;
  violations : int;
}

let evaluate ?(tick_s = 1.0) ?latency_override_ms ~duration_s scenario m =
  let latency_s = Option.value latency_override_ms ~default:0.0 /. 1000.0 in
  (* Every allocation the loop serves or scores must satisfy the
     feasibility invariants of its instance (carryover and trim
     guarantee it).  Violations are logged and counted, not fatal, so
     a long run reports them all. *)
  let audit inst alloc =
    let vs = Allocation.violations inst alloc in
    List.iter
      (fun v ->
        Printf.eprintf "[online] %s: %s\n%!" (Method.name m)
          (Allocation.violation_to_string v))
      vs;
    List.length vs
  in
  (* One round at tick [i]: once the previous computation has landed
     (at t = 0 there is none), it goes into effect and the next one
     starts on the current inputs.  Then every tick after t = 0 scores
     the allocation in effect, carried over onto the current instance. *)
  let step st i =
    let now = float_of_int i *. tick_s in
    let inst = Scenario.instance_at scenario ~time_s:now in
    let st =
      match st.pending with
      | Some (lands_s, _) when now < lands_s -> st
      | landed ->
          let alloc = Method.solve m inst in
          let fresh = (inst, alloc) in
          { st with
            (* Warm start: the t = 0 result is in effect at once. *)
            active = Some (match landed with Some (_, done_) -> done_ | None -> fresh);
            pending = Some (now +. latency_s, fresh);
            recomputations = st.recomputations + 1;
            violations = st.violations + audit inst alloc }
    in
    match st.active with
    | Some (old_inst, old_alloc) when i > 0 ->
        let effective = carryover old_inst old_alloc inst in
        { st with
          per_tick = (now, Allocation.satisfied_ratio inst effective) :: st.per_tick;
          violations = st.violations + audit inst effective }
    | _ -> st
  in
  let ticks = int_of_float (Float.ceil (duration_s /. tick_s)) in
  let rec run st i = if i > ticks then st else run (step st i) (i + 1) in
  let st =
    run { active = None; pending = None; per_tick = []; recomputations = 0; violations = 0 } 0
  in
  let per_tick = List.rev st.per_tick in
  let n = List.length per_tick in
  { method_name = Method.name m;
    mean_satisfied =
      (if n = 0 then 0.0
       else List.fold_left (fun acc (_, s) -> acc +. s) 0.0 per_tick /. float_of_int n);
    per_tick;
    recomputations = st.recomputations;
    violations = st.violations }
