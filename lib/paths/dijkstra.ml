module Snapshot = Sate_topology.Snapshot
module Link = Sate_topology.Link
module Pqueue = Sate_util.Pqueue

type weight = Hops | Km

let link_cost weight (l : Link.t) =
  match weight with Hops -> 1.0 | Km -> l.Link.length_km

(* Dijkstra shared by [shortest] and [distances]: settles nodes from
   the seeded [sources] until [stop u] holds for a settled node or the
   frontier empties.  Returns the distance and predecessor arrays. *)
let search ~weight ~banned_nodes ~banned_links ~stop snap ~sources =
  let n = Snapshot.num_nodes snap in
  let dist = Array.make n Float.infinity in
  let prev = Array.make n (-1) in
  let q = Pqueue.create n in
  List.iter
    (fun (s, d) ->
      if d < dist.(s) then begin
        dist.(s) <- d;
        Pqueue.insert_or_decrease q s d
      end)
    sources;
  let finished = ref false in
  while not !finished do
    match Pqueue.pop_min q with
    | None -> finished := true
    | Some (u, du) ->
        (* Staleness guard: skip entries superseded by a shorter
           settled distance (cannot happen with the indexed
           decrease-key queue and non-negative weights, but keeps
           the search correct under any queue or weight regime). *)
        if du > dist.(u) then ()
        else if stop u then finished := true
        else
          List.iter
            (fun (v, li) ->
              if (not (banned_nodes v)) && not (banned_links li) then begin
                let alt = du +. link_cost weight snap.Snapshot.links.(li) in
                if alt < dist.(v) then begin
                  dist.(v) <- alt;
                  prev.(v) <- u;
                  Pqueue.insert_or_decrease q v alt
                end
              end)
            (Snapshot.neighbors snap u)
  done;
  (dist, prev)

let shortest ?(weight = Hops) ?(banned_nodes = fun _ -> false)
    ?(banned_links = fun _ -> false) snap ~src ~dst =
  let n = Snapshot.num_nodes snap in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg "Dijkstra.shortest: node out of range";
  if banned_nodes src || banned_nodes dst then None
  else begin
    let dist, prev =
      search ~weight ~banned_nodes ~banned_links
        ~stop:(fun u -> u = dst) snap ~sources:[ (src, 0.0) ]
    in
    if dist.(dst) = Float.infinity then None
    else begin
      let rec build acc u = if u = src then src :: acc else build (u :: acc) prev.(u) in
      Some (Path.of_list (build [] dst))
    end
  end

let distances ?(weight = Hops) snap ~sources =
  let n = Snapshot.num_nodes snap in
  List.iter
    (fun (s, _) ->
      if s < 0 || s >= n then invalid_arg "Dijkstra.distances: node out of range")
    sources;
  fst
    (search ~weight
       ~banned_nodes:(fun _ -> false)
       ~banned_links:(fun _ -> false)
       ~stop:(fun _ -> false) snap ~sources)

let bfs_nearest snap ~src ~follow ~accept =
  (* Visited on enqueue: [parent.(v)] is the node that first reached
     [v] ([-1] for [src], [-2] while unreached). *)
  let parent = Array.make (Snapshot.num_nodes snap) (-2) in
  parent.(src) <- -1;
  let queue = Queue.create () in
  Queue.add src queue;
  let rec path acc u = if u = src then src :: acc else path (u :: acc) parent.(u) in
  let rec loop () =
    if Queue.is_empty queue then None
    else
      let u = Queue.take queue in
      match accept u with
      | Some found -> Some (path [] u, found)
      | None ->
          List.iter
            (fun (v, li) ->
              if parent.(v) = -2 && follow snap.Snapshot.links.(li) then begin
                parent.(v) <- u;
                Queue.add v queue
              end)
            (Snapshot.neighbors snap u);
          loop ()
  in
  loop ()
