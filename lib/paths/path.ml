module Snapshot = Sate_topology.Snapshot
module Geo = Sate_geo.Geo

type t = { nodes : int array }

let of_list nodes =
  let arr = Array.of_list nodes in
  if Array.length arr < 2 then invalid_arg "Path.of_list: need at least two nodes";
  for i = 0 to Array.length arr - 2 do
    if arr.(i) = arr.(i + 1) then invalid_arg "Path.of_list: repeated node"
  done;
  { nodes = arr }

let to_list t = Array.to_list t.nodes

let source t = t.nodes.(0)

let destination t = t.nodes.(Array.length t.nodes - 1)

let hops t = Array.length t.nodes - 1

let compare a b = compare a.nodes b.nodes

let is_loopless t =
  let seen = Hashtbl.create (Array.length t.nodes) in
  Array.for_all
    (fun n ->
      if Hashtbl.mem seen n then false
      else begin
        Hashtbl.add seen n ();
        true
      end)
    t.nodes

let valid_in snap t = Snapshot.path_valid snap t.nodes

let length_km snap t =
  let total = ref 0.0 in
  for i = 0 to Array.length t.nodes - 2 do
    let li = Snapshot.link_index snap t.nodes.(i) t.nodes.(i + 1) in
    if li < 0 then invalid_arg "Path.length_km: missing hop";
    total := !total +. snap.Snapshot.links.(li).Sate_topology.Link.length_km
  done;
  !total

let delay_ms snap t = length_km snap t /. Geo.speed_of_light_km_s *. 1000.0

let link_indices snap t =
  let hops = Array.length t.nodes - 1 in
  let links = Array.make hops 0 in
  let rec fill i =
    if i = hops then Some links
    else
      let li = Snapshot.link_index snap t.nodes.(i) t.nodes.(i + 1) in
      if li < 0 then None
      else begin
        links.(i) <- li;
        fill (i + 1)
      end
  in
  fill 0
