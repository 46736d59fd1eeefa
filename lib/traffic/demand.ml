type entry = { src : int; dst : int; demand_mbps : float }

type t = { num_sats : int; entries : entry array }

let of_assoc ~num_sats assoc =
  let table = Hashtbl.create (List.length assoc) in
  List.iter
    (fun (src, dst, d) ->
      if src <> dst && d > 0.0 then begin
        let prev = Option.value ~default:0.0 (Hashtbl.find_opt table (src, dst)) in
        Hashtbl.replace table (src, dst) (prev +. d)
      end)
    assoc;
  let entries =
    Hashtbl.fold (fun (src, dst) d acc -> { src; dst; demand_mbps = d } :: acc) table []
    |> List.sort (fun a b -> compare (a.src, a.dst) (b.src, b.dst))
    |> Array.of_list
  in
  { num_sats; entries }

let total_demand t =
  Array.fold_left (fun acc e -> acc +. e.demand_mbps) 0.0 t.entries

let num_entries t = Array.length t.entries

let pairs t = Array.to_list (Array.map (fun e -> (e.src, e.dst)) t.entries)

let sparse_volume_bytes t = Array.length t.entries * (8 + 4 + 4)

let find t ~src ~dst =
  (* Entries are few; linear scan is fine for the sizes used in tests,
     but binary search keeps evaluation over Starlink matrices fast. *)
  let n = Array.length t.entries in
  let rec search lo hi =
    if lo >= hi then 0.0
    else
      let mid = (lo + hi) / 2 in
      let e = t.entries.(mid) in
      let c = compare (e.src, e.dst) (src, dst) in
      if c = 0 then e.demand_mbps
      else if c < 0 then search (mid + 1) hi
      else search lo mid
  in
  search 0 n
