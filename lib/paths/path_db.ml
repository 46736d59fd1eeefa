module Constellation = Sate_orbit.Constellation
module Snapshot = Sate_topology.Snapshot
module Par = Sate_par.Par

type entry = { paths : Path.t array; links : int array array }

type t = {
  constellation : Constellation.t;
  k : int;
  snapshot : Snapshot.t;
  table : (int * int, entry) Hashtbl.t;
}

let snapshot t = t.snapshot

let pairs t =
  let arr = Array.make (Hashtbl.length t.table) (0, 0) in
  let i = ref 0 in
  Hashtbl.iter
    (fun pair _ ->
      arr.(!i) <- pair;
      incr i)
    t.table;
  Array.sort compare arr;
  arr

let untracked = { paths = [||]; links = [||] }

let find t ~src ~dst = Option.value ~default:untracked (Hashtbl.find_opt t.table (src, dst))

(* [paths] with every hop resolved to its link index in [snap];
   [None] if a path has a missing hop. *)
let resolve snap paths =
  let links = Array.map (Path.link_indices snap) paths in
  if Array.for_all Option.is_some links then Some { paths; links = Array.map Option.get links }
  else None

(* Grid_paths returns only paths valid in the snapshot it searched,
   so their resolution cannot fail. *)
let search t (src, dst) =
  let found = Grid_paths.k_shortest t.constellation t.snapshot ~src ~dst ~k:t.k in
  Option.get (resolve t.snapshot (Array.of_list found))

let dedup pair_list =
  let seen = Hashtbl.create (List.length pair_list) in
  List.filter
    (fun pair ->
      if Hashtbl.mem seen pair then false
      else begin
        Hashtbl.replace seen pair ();
        true
      end)
    pair_list

let add_pairs t snap new_pairs =
  if snap != t.snapshot then invalid_arg "Path_db.add_pairs: not the store's snapshot";
  let table = Hashtbl.copy t.table in
  (* One independent search per new pair, fanned out over the domain
     pool; results come back in the order of [fresh], so the table
     contents are identical to a sequential build. *)
  let fresh = Array.of_list (dedup (List.filter (fun p -> not (Hashtbl.mem table p)) new_pairs)) in
  let results = Par.map_array (search t) fresh in
  Array.iteri (fun i pair -> Hashtbl.replace table pair results.(i)) fresh;
  { t with table }

let compute constellation snapshot ~pairs ~k =
  add_pairs { constellation; k; snapshot; table = Hashtbl.create 0 } snapshot pairs

let update t snap =
  (* A pair with a missing hop in [snap], or with no paths, is
     searched again.  Pairs are independent; iterate the sorted pair
     array so the fan-out order is deterministic. *)
  let t = { t with snapshot = snap } in
  let entries = pairs t in
  let results =
    Par.map_array
      (fun pair ->
        match resolve snap (Hashtbl.find t.table pair).paths with
        | Some e when Array.length e.paths > 0 -> (e, false)
        | _ -> (search t pair, true))
      entries
  in
  let table = Hashtbl.create (Array.length entries) in
  let recomputed = ref 0 in
  Array.iteri
    (fun i pair ->
      let e, was_recomputed = results.(i) in
      if was_recomputed then incr recomputed;
      Hashtbl.replace table pair e)
    entries;
  ({ t with table }, !recomputed)

let stats t =
  let total = Hashtbl.fold (fun _ e acc -> acc + Array.length e.paths) t.table 0 in
  (Hashtbl.length t.table, total)
