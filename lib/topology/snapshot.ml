module Geo = Sate_geo.Geo

type t = {
  time_s : float;
  num_sats : int;
  num_relays : int;
  sat_positions : Geo.vec3 array;
  relay_positions : Geo.vec3 array;
  links : Link.t array;
  adj : (int * int) list array;
}

let num_nodes t = t.num_sats + t.num_relays

let rec find_index (v : int) = function
  | [] -> -1
  | (nbr, li) :: rest -> if nbr = v then li else find_index v rest

let make ~time_s ~num_sats ~sat_positions ~relay_positions ~links =
  let num_relays = Array.length relay_positions in
  let n = num_sats + num_relays in
  let links = Array.of_list links in
  let adj = Array.make n [] in
  Array.iteri
    (fun i l ->
      let u = l.Link.u and v = l.Link.v in
      if u = v then invalid_arg "Snapshot.make: self-loop";
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "Snapshot.make: endpoint out of range";
      if find_index v adj.(u) >= 0 then invalid_arg "Snapshot.make: duplicate link";
      adj.(u) <- (v, i) :: adj.(u);
      adj.(v) <- (u, i) :: adj.(v))
    links;
  { time_s; num_sats; num_relays; sat_positions; relay_positions; links; adj }

let position t i =
  if i < t.num_sats then t.sat_positions.(i)
  else t.relay_positions.(i - t.num_sats)

let neighbors t i = t.adj.(i)

let link_index t u v = find_index v t.adj.(u)

let link_keys t =
  let keys = Array.map Link.key t.links in
  Array.sort Link.compare_key keys;
  keys

let equal_topology a b =
  Array.length a.links = Array.length b.links
  && link_keys a = link_keys b

let degree t i = List.length t.adj.(i)

let remove_links t pairs =
  let doomed = Hashtbl.create (List.length pairs) in
  List.iter
    (fun (u, v) -> Hashtbl.replace doomed (min u v, max u v) ())
    pairs;
  let links =
    Array.to_list t.links
    |> List.filter (fun l -> not (Hashtbl.mem doomed (Link.key l)))
  in
  make ~time_s:t.time_s ~num_sats:t.num_sats ~sat_positions:t.sat_positions
    ~relay_positions:t.relay_positions ~links

let path_valid t nodes =
  let last = Array.length nodes - 1 in
  let i = ref 0 in
  while !i < last && link_index t nodes.(!i) nodes.(!i + 1) >= 0 do
    incr i
  done;
  !i >= last
