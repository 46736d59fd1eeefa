module Snapshot = Sate_topology.Snapshot
module Simplex = Sate_lp.Simplex
module Certificate = Sate_lp.Certificate

type objective = Max_throughput | Min_mlu | Max_log_utility

exception Verification_failed of string

let fail_check what fmt =
  Printf.ksprintf (fun s -> raise (Verification_failed (what ^ ": " ^ s))) fmt

(* Raise if an [Optimal] outcome fails the independent certificate
   check (primal feasibility + objective recomputation). *)
let certify ~what ~c ~constraints outcome =
  match Certificate.check ~c ~constraints outcome with
  | None -> ()
  | Some report ->
      if not (Certificate.valid report) then
        fail_check what "%s" (Certificate.report_to_string report)

let audit what inst alloc =
  match Allocation.violations inst alloc with
  | [] -> ()
  | v :: _ ->
      fail_check what "trimmed allocation infeasible: %s"
        (Allocation.violation_to_string v)

(* Variable layout: candidate paths flattened commodity-major;
   [offsets.(f)] is the first variable of commodity [f].  Any other
   variable (the MLU, the utilities) comes after every path, so rows
   list their path terms first. *)
let layout (inst : Instance.t) =
  let nc = Array.length inst.Instance.commodities in
  let offsets = Array.make nc 0 in
  let n = ref 0 in
  for f = 0 to nc - 1 do
    offsets.(f) <- !n;
    n := !n + Array.length inst.Instance.commodities.(f).Instance.paths
  done;
  (offsets, !n)

(* One row of path terms per key that some path uses, in increasing
   key order: [keys f c p add] calls [add] on every key in
   [[0, n_keys)] that path [p] of commodity [f] uses.  Paths are
   visited in variable order, so each row's indices increase; a path
   that uses a key twice (crossing a link twice) gets one term with
   coefficient 2. *)
let incidence (inst : Instance.t) offsets ~n_keys keys =
  let rows = Array.make n_keys [] in
  Array.iteri
    (fun f (c : Instance.commodity) ->
      for p = 0 to Array.length c.Instance.paths - 1 do
        let v = offsets.(f) + p in
        keys f c p (fun k ->
            rows.(k) <-
              (match rows.(k) with
              | (u, a) :: rest when u = v -> (v, a +. 1.0) :: rest
              | terms -> (v, 1.0) :: terms))
      done)
    inst.Instance.commodities;
  Array.to_list rows
  |> List.mapi (fun k terms -> (k, Array.of_list (List.rev terms)))
  |> List.filter (fun (_, terms) -> Array.length terms > 0)

(* Constraints (2.b)-(2.d): one row per resource of [Instance.caps]
   with a finite capacity that some path uses, in resource order, or
   per link only under [~links_only].  A path uses its links, its
   source's uplink and its destination's downlink.  [row terms cap]
   builds the constraint. *)
let capacity_rows (inst : Instance.t) offsets ~links_only row =
  let caps = inst.Instance.caps in
  let n_links = Array.length inst.Instance.snapshot.Snapshot.links in
  let n = Snapshot.num_nodes inst.Instance.snapshot in
  let n_rows = if links_only then n_links else Array.length caps in
  incidence inst offsets ~n_keys:(Array.length caps) (fun _ c p add ->
      Array.iter add c.Instance.path_links.(p);
      add (n_links + c.Instance.src);
      add (n_links + n + c.Instance.dst))
  |> List.filter_map (fun (r, terms) ->
         if r < n_rows && Float.is_finite caps.(r) then Some (row terms caps.(r)) else None)

let demand_rows (inst : Instance.t) ~sense offsets =
  let commodities = inst.Instance.commodities in
  incidence inst offsets ~n_keys:(Array.length commodities) (fun f _ _ add -> add f)
  |> List.map (fun (f, terms) ->
         { Simplex.terms; sense; rhs = commodities.(f).Instance.demand_mbps })

(* Constraints (2.b)-(2.e) over the path variables. *)
let throughput_rows inst offsets =
  capacity_rows inst offsets ~links_only:false (fun terms cap ->
      { Simplex.terms; sense = Simplex.Le; rhs = cap })
  @ demand_rows inst ~sense:Simplex.Le offsets

let to_allocation (inst : Instance.t) offsets solution =
  Array.mapi
    (fun f (c : Instance.commodity) ->
      Array.init (Array.length c.Instance.paths) (fun p -> solution.(offsets.(f) + p)))
    inst.Instance.commodities

(* One objective's LP: what the driver solves, the value it reports
   with a zero allocation when the solver fails, and how an optimal
   solution becomes an allocation and its value, cross-checked
   against the LP objective under [~verify]. *)
type formulation = {
  what : string;
  maximize : bool;
  c : float array;
  constraints : Simplex.constr list;
  failed : float;
  decode : verify:bool -> objective:float -> float array -> Allocation.t * float;
}

let max_throughput inst offsets n_paths =
  { what = "max-throughput";
    maximize = true;
    c = Array.make n_paths 1.0;
    constraints = throughput_rows inst offsets;
    (* x = 0 is feasible, so only a numerical failure gets here. *)
    failed = 0.0;
    decode =
      (fun ~verify ~objective solution ->
        let alloc = Allocation.trim inst (to_allocation inst offsets solution) in
        let flow = Allocation.total_flow alloc in
        if verify then begin
          (* The LP solution is primal-feasible, so the trim projection
             must preserve its flow: a gap means either the certificate
             or the projection is wrong. *)
          if Float.abs (flow -. objective) > 1e-5 *. Float.max 1.0 objective then
            fail_check "max-throughput"
              "trim projection changed flow: lp %.9g, trimmed %.9g" objective flow;
          audit "max-throughput" inst alloc
        end;
        (alloc, flow)) }

let min_mlu inst offsets n_paths =
  let c = Array.make (n_paths + 1) 0.0 in
  c.(n_paths) <- 1.0;
  { what = "min-mlu";
    maximize = false;
    c;
    constraints =
      (* load - cap * t <= 0 *)
      capacity_rows inst offsets ~links_only:true (fun terms cap ->
          { Simplex.terms = Array.append terms [| (n_paths, -.cap) |];
            sense = Simplex.Le;
            rhs = 0.0 })
      @ demand_rows inst ~sense:Simplex.Eq offsets;
    failed = Float.infinity;
    decode =
      (fun ~verify ~objective:t solution ->
        let alloc = to_allocation inst offsets solution in
        if verify then begin
          (* Every capacity row reads load <= cap * t, so the achieved
             utilisation can never exceed the optimum. *)
          let achieved = Allocation.mlu inst alloc in
          if achieved > t +. 1e-5 *. Float.max 1.0 t then
            fail_check "min-mlu" "achieved MLU %.9g exceeds optimum %.9g" achieved t
        end;
        (alloc, t)) }

(* Tangent fractions of the demand at which log utility is
   linearised; the concave hull of these cuts approximates u = log x
   from above. *)
let log_utility_tangents = [ 0.05; 0.2; 0.5; 1.0 ]

(* Shift added to every commodity's utility variable so it stays
   non-negative in the simplex (log of small rates is negative). *)
let log_utility_shift = 25.0

(* Variables: path rates, then one shifted utility u_f' per routable
   commodity.  maximize sum u_f' subject to the throughput constraints
   plus, for each tangent fraction a,
   u_f' - (sum_p x_fp) / (a d_f) <= log (a d_f) - 1 + shift. *)
let max_log_utility (inst : Instance.t) offsets n_paths =
  let routable =
    Array.to_list (Array.mapi (fun f c -> (f, c)) inst.Instance.commodities)
    |> List.filter (fun (_, (c : Instance.commodity)) ->
           Array.length c.Instance.paths > 0 && c.Instance.demand_mbps > 0.0)
  in
  let n_util = List.length routable in
  let c = Array.make (n_paths + n_util) 0.0 in
  Array.fill c n_paths n_util 1.0;
  let tangent_rows =
    List.concat
      (List.mapi
         (fun i (f, (cm : Instance.commodity)) ->
           let n_p = Array.length cm.Instance.paths in
           List.map
             (fun a ->
               let anchor = a *. cm.Instance.demand_mbps in
               { Simplex.terms =
                   Array.init (n_p + 1) (fun p ->
                       if p < n_p then (offsets.(f) + p, -1.0 /. anchor)
                       else (n_paths + i, 1.0));
                 sense = Simplex.Le;
                 rhs = log anchor -. 1.0 +. log_utility_shift })
             log_utility_tangents)
         routable)
  in
  { what = "max-log-utility";
    maximize = true;
    c;
    constraints = throughput_rows inst offsets @ tangent_rows;
    failed = Float.neg_infinity;
    decode =
      (fun ~verify ~objective:_ solution ->
        let alloc = Allocation.trim inst (to_allocation inst offsets solution) in
        if verify then audit "max-log-utility" inst alloc;
        (* Report the true achieved utility, not the piecewise
           surrogate. *)
        let utility =
          Array.fold_left
            (fun acc rates ->
              let x = Array.fold_left ( +. ) 0.0 rates in
              if x > 0.0 then acc +. log x else acc)
            0.0 alloc
        in
        (alloc, utility)) }

(* Solve, certify and decode one formulation; every solver failure is
   handled here, for every objective. *)
let run ~verify inst { what; maximize; c; constraints; failed; decode } =
  match Simplex.solve ~maximize ~c ~constraints () with
  | Simplex.Optimal { objective; solution } as outcome ->
      if verify then certify ~what ~c ~constraints outcome;
      decode ~verify ~objective solution
  | (Simplex.Infeasible | Simplex.Unbounded | Simplex.Iteration_limit) as outcome ->
      if verify then
        fail_check what "simplex returned %s"
          (match outcome with
          | Simplex.Infeasible -> "infeasible"
          | Simplex.Unbounded -> "unbounded"
          | _ -> "at its iteration limit");
      (Allocation.zeros inst, failed)

let solve_with_value ?(objective = Max_throughput) ?(verify = false) inst =
  let offsets, n_paths = layout inst in
  if n_paths = 0 then (Allocation.zeros inst, 0.0)
  else
    let formulate =
      match objective with
      | Max_throughput -> max_throughput
      | Min_mlu -> min_mlu
      | Max_log_utility -> max_log_utility
    in
    run ~verify inst (formulate inst offsets n_paths)

let solve ?objective ?verify inst = fst (solve_with_value ?objective ?verify inst)
