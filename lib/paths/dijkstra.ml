module Snapshot = Sate_topology.Snapshot
module Link = Sate_topology.Link
module Pqueue = Sate_util.Pqueue

type weight = Hops | Km

let[@inline] link_cost weight (l : Link.t) =
  match weight with Hops -> 1.0 | Km -> l.Link.length_km

(* Search state over one snapshot, kept between searches: [dist] and
   [prev] are reset through the nodes a search reached ([touched]),
   the queue is cleared rather than recreated, and a node or link is
   banned while its stamp equals [stamp], so [unban] lifts every ban
   at once. *)
type workspace = {
  snap : Snapshot.t;
  weight : weight;
  dist : float array;
  prev : int array;
  touched : int array;
  mutable reached : int;
  queue : Pqueue.t;
  node_stamp : int array;
  link_stamp : int array;
  mutable stamp : int;
}

let workspace weight snap =
  let n = Snapshot.num_nodes snap in
  { snap;
    weight;
    dist = Array.make n Float.infinity;
    prev = Array.make n (-1);
    touched = Array.make n 0;
    reached = 0;
    queue = Pqueue.create n;
    node_stamp = Array.make n 0;
    link_stamp = Array.make (Array.length snap.Snapshot.links) 0;
    stamp = 1 }

let unban ws = ws.stamp <- ws.stamp + 1

let ban_node ws v = ws.node_stamp.(v) <- ws.stamp

let ban_link ws li = ws.link_stamp.(li) <- ws.stamp

let reset ws =
  for i = 0 to ws.reached - 1 do
    let v = ws.touched.(i) in
    ws.dist.(v) <- Float.infinity;
    ws.prev.(v) <- -1
  done;
  ws.reached <- 0;
  Pqueue.clear ws.queue

(* Lower [v]'s tentative distance to [d] (finite, below the current
   one) and queue it. *)
let[@inline] lower ws v d =
  if ws.dist.(v) = Float.infinity then begin
    ws.touched.(ws.reached) <- v;
    ws.reached <- ws.reached + 1
  end;
  ws.dist.(v) <- d;
  Pqueue.insert_or_decrease ws.queue v d

(* The one Dijkstra, over a workspace seeded by [lower]: settles nodes
   until [dst] is settled ([-1]: never) or the frontier empties.
   Neighbours are relaxed in [Snapshot.neighbors] order and only on a
   strictly shorter distance, which fixes the tie-breaks. *)
let search ws ~dst =
  let snap = ws.snap and dist = ws.dist and prev = ws.prev and q = ws.queue in
  let node_stamp = ws.node_stamp and link_stamp = ws.link_stamp and stamp = ws.stamp in
  let finished = ref false in
  while not !finished do
    let u = Pqueue.pop q in
    if u < 0 then finished := true
    else begin
      let du = Pqueue.priority q u in
      (* Staleness guard: skip entries superseded by a shorter settled
         distance (cannot happen with the indexed decrease-key queue
         and non-negative weights, but keeps the search correct under
         any queue or weight regime). *)
      if du > dist.(u) then ()
      else if u = dst then finished := true
      else begin
        let rest = ref (Snapshot.neighbors snap u) in
        while
          match !rest with
          | [] -> false
          | (v, li) :: tl ->
              rest := tl;
              if node_stamp.(v) <> stamp && link_stamp.(li) <> stamp then begin
                let alt = du +. link_cost ws.weight snap.Snapshot.links.(li) in
                if alt < dist.(v) then begin
                  lower ws v alt;
                  prev.(v) <- u
                end
              end;
              true
        do
          ()
        done
      end
    end
  done

let shortest_in ws ~src ~dst =
  let n = Array.length ws.dist in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg "Dijkstra.shortest: node out of range";
  let banned v = ws.node_stamp.(v) = ws.stamp in
  if banned src || banned dst then None
  else begin
    reset ws;
    lower ws src 0.0;
    search ws ~dst;
    if ws.dist.(dst) = Float.infinity then None
    else begin
      let rec build acc u = if u = src then src :: acc else build (u :: acc) ws.prev.(u) in
      Some (Path.of_list (build [] dst))
    end
  end

let shortest ?(weight = Hops) ?banned_nodes ?banned_links snap ~src ~dst =
  let ws = workspace weight snap in
  let ban_all banned ban count =
    Option.iter (fun banned -> for i = 0 to count - 1 do if banned i then ban ws i done) banned
  in
  ban_all banned_nodes ban_node (Snapshot.num_nodes snap);
  ban_all banned_links ban_link (Array.length snap.Snapshot.links);
  shortest_in ws ~src ~dst

let distances ?(weight = Hops) snap ~sources =
  let ws = workspace weight snap in
  let n = Array.length ws.dist in
  List.iter
    (fun (s, _) ->
      if s < 0 || s >= n then invalid_arg "Dijkstra.distances: node out of range")
    sources;
  List.iter (fun (s, d) -> if d < ws.dist.(s) then lower ws s d) sources;
  search ws ~dst:(-1);
  ws.dist

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
