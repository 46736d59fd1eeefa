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

let make ~time_s ~num_sats ~sat_positions ~relay_positions ~links =
  let num_relays = Array.length relay_positions in
  let n = num_sats + num_relays in
  let links = Array.of_list links in
  let seen = Hashtbl.create (Array.length links) in
  Array.iter
    (fun l ->
      if l.Link.u = l.Link.v then invalid_arg "Snapshot.make: self-loop";
      if l.Link.u < 0 || l.Link.u >= n || l.Link.v < 0 || l.Link.v >= n then
        invalid_arg "Snapshot.make: endpoint out of range";
      let k = Link.key l in
      if Hashtbl.mem seen k then invalid_arg "Snapshot.make: duplicate link";
      Hashtbl.add seen k ())
    links;
  let adj = Array.make n [] in
  Array.iteri
    (fun i l ->
      adj.(l.Link.u) <- (l.Link.v, i) :: adj.(l.Link.u);
      adj.(l.Link.v) <- (l.Link.u, i) :: adj.(l.Link.v))
    links;
  { time_s; num_sats; num_relays; sat_positions; relay_positions; links; adj }

let position t i =
  if i < t.num_sats then t.sat_positions.(i)
  else t.relay_positions.(i - t.num_sats)

let neighbors t i = t.adj.(i)

let rec find_index v = function
  | [] -> -1
  | (nbr, li) :: rest -> if nbr = v then li else find_index v rest

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
