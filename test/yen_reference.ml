(* Reference for Sate_paths' path search: the Dijkstra, Yen and grid
   top-up that a fresh queue, arrays and ban tables per search gave,
   copied unchanged (with the indexed queue they ran on).  Dijkstra
   and Yen now reuse one workspace per call and the top-up runs Yen
   only as far as it needs; every path they return must equal this
   one, in the same order. *)

module Path = Sate_paths.Path

module Pqueue = struct
  type t = {
    keys : int array; (* heap array of keys *)
    prios : float array; (* prios.(k) = priority of key k *)
    pos : int array; (* pos.(k) = index of k in [keys], or -1 *)
    mutable size : int;
  }

  let create n =
    { keys = Array.make (max n 1) 0; prios = Array.make (max n 1) 0.0; pos = Array.make (max n 1) (-1); size = 0 }

  let mem q k = q.pos.(k) >= 0

  let swap q i j =
    let ki = q.keys.(i) and kj = q.keys.(j) in
    q.keys.(i) <- kj;
    q.keys.(j) <- ki;
    q.pos.(kj) <- i;
    q.pos.(ki) <- j

  let rec sift_up q i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if q.prios.(q.keys.(i)) < q.prios.(q.keys.(parent)) then begin
        swap q i parent;
        sift_up q parent
      end
    end

  let rec sift_down q i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest = ref i in
    if l < q.size && q.prios.(q.keys.(l)) < q.prios.(q.keys.(!smallest)) then smallest := l;
    if r < q.size && q.prios.(q.keys.(r)) < q.prios.(q.keys.(!smallest)) then smallest := r;
    if !smallest <> i then begin
      swap q i !smallest;
      sift_down q !smallest
    end

  let insert q k p =
    if mem q k then invalid_arg "Pqueue.insert: key already present";
    q.keys.(q.size) <- k;
    q.pos.(k) <- q.size;
    q.prios.(k) <- p;
    q.size <- q.size + 1;
    sift_up q (q.size - 1)

  let decrease q k p =
    if mem q k && p < q.prios.(k) then begin
      q.prios.(k) <- p;
      sift_up q q.pos.(k)
    end

  let insert_or_decrease q k p = if mem q k then decrease q k p else insert q k p

  let pop_min q =
    if q.size = 0 then None
    else begin
      let k = q.keys.(0) in
      let p = q.prios.(k) in
      q.size <- q.size - 1;
      q.pos.(k) <- -1;
      if q.size > 0 then begin
        let last = q.keys.(q.size) in
        q.keys.(0) <- last;
        q.pos.(last) <- 0;
        sift_down q 0
      end;
      Some (k, p)
    end
end

module Dijkstra = struct
  module Snapshot = Sate_topology.Snapshot
  module Link = Sate_topology.Link

  type weight = Sate_paths.Dijkstra.weight = Hops | Km

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
end

module Yen = struct
  module Snapshot = Sate_topology.Snapshot

  let k_shortest snap ~src ~dst ~k =
    if k <= 0 then []
    else
      match Dijkstra.shortest snap ~src ~dst with
      | None -> []
      | Some first ->
          (* Newest-first accumulator with an explicit count: the accept
             loop runs on the per-commodity precompute hot path, and
             [!accepted @ [best]] / [List.length] per iteration would
             make it O(k^2).  Reversed once on return. *)
          let accepted = ref [ first ] in
          let accepted_n = ref 1 in
          (* Candidate pool keyed by cost; paths deduplicated. *)
          let candidates = Sate_util.Heap.create () in
          let known = Hashtbl.create 64 in
          Hashtbl.replace known first.Path.nodes ();
          let push_candidate p =
            if not (Hashtbl.mem known p.Path.nodes) then begin
              Hashtbl.replace known p.Path.nodes ();
              Sate_util.Heap.push candidates (float_of_int (Path.hops p)) p
            end
          in
          let spurs_of prev_path =
            let nodes = prev_path.Path.nodes in
            let len = Array.length nodes in
            for i = 0 to len - 2 do
              let spur_node = nodes.(i) in
              let root = Array.sub nodes 0 (i + 1) in
              (* Ban links used by accepted paths sharing this root and
                 ban root nodes except the spur node (looplessness). *)
              let banned_links = Hashtbl.create 16 in
              List.iter
                (fun (p : Path.t) ->
                  let pn = p.Path.nodes in
                  if Array.length pn > i && Array.sub pn 0 (i + 1) = root then
                    Hashtbl.replace banned_links
                      (Snapshot.link_index snap pn.(i) pn.(i + 1))
                      ())
                !accepted;
              let banned_nodes = Hashtbl.create 16 in
              Array.iteri (fun j n -> if j < i then Hashtbl.replace banned_nodes n ()) nodes;
              match
                Dijkstra.shortest
                  ~banned_nodes:(Hashtbl.mem banned_nodes)
                  ~banned_links:(Hashtbl.mem banned_links)
                  snap ~src:spur_node ~dst
              with
              | None -> ()
              | Some spur ->
                  let total =
                    Array.append (Array.sub root 0 i) spur.Path.nodes
                  in
                  let p = { Path.nodes = total } in
                  if Path.is_loopless p then push_candidate p
            done
          in
          let rec loop last =
            if !accepted_n >= k then ()
            else begin
              spurs_of last;
              match Sate_util.Heap.pop candidates with
              | None -> ()
              | Some (_, best) ->
                  accepted := best :: !accepted;
                  incr accepted_n;
                  loop best
            end
          in
          loop first;
          List.rev !accepted
end

module Grid_paths = struct
  module Constellation = Sate_orbit.Constellation
  module Shell = Sate_orbit.Shell
  module Snapshot = Sate_topology.Snapshot
  module Link = Sate_topology.Link

  let shell_of c node =
    if node < Constellation.size c then (Constellation.coord_of_id c node).Constellation.shell
    else -1 (* ground relay *)

  (* Wrapped directed distance on a ring of size n: steps and unit
     direction with the fewer hops (ties resolved forward). *)
  let ring_steps n a b =
    if n <= 1 then (0, 1)
    else
      let fwd = ((b - a) mod n + n) mod n in
      let bwd = n - fwd in
      if fwd <= bwd then (fwd, 1) else (bwd, -1)

  let intra_shell_candidates c ~src ~dst ~limit =
    let sc = Constellation.coord_of_id c src in
    let dc = Constellation.coord_of_id c dst in
    if sc.Constellation.shell <> dc.Constellation.shell then
      invalid_arg "Grid_paths.intra_shell_candidates: different shells";
    let sh = (Constellation.shells c).(sc.Constellation.shell) in
    let planes = sh.Shell.planes and per = sh.Shell.sats_per_plane in
    let steps_x, sign_x = ring_steps planes sc.Constellation.plane dc.Constellation.plane in
    let steps_y, sign_y = ring_steps per sc.Constellation.slot dc.Constellation.slot in
    let id plane slot =
      Constellation.id_of_coord c
        { Constellation.shell = sc.Constellation.shell;
          plane = ((plane mod planes) + planes) mod planes;
          slot = ((slot mod per) + per) mod per }
    in
    let results = ref [] and count = ref 0 in
    (* DFS over interleavings of plane moves (x) and slot moves (y). *)
    let rec go plane slot rx ry acc =
      if !count < limit then begin
        if rx = 0 && ry = 0 then begin
          results := Path.of_list (List.rev acc) :: !results;
          incr count
        end
        else begin
          if rx > 0 then begin
            let plane' = plane + sign_x in
            go plane' slot (rx - 1) ry (id plane' slot :: acc)
          end;
          if ry > 0 then begin
            let slot' = slot + sign_y in
            go plane slot' rx (ry - 1) (id plane slot' :: acc)
          end
        end
      end
    in
    if steps_x = 0 && steps_y = 0 then []
    else begin
      go sc.Constellation.plane sc.Constellation.slot steps_x steps_y
        [ id sc.Constellation.plane sc.Constellation.slot ];
      List.rev !results
    end

  let same_shell_link (l : Link.t) =
    match l.Link.kind with
    | Link.Intra_orbit | Link.Inter_orbit -> true
    | Link.Cross_shell_laser | Link.Relay -> false

  (* The crossing from [node] toward [target_shell], as the node list
     node..gamma entering that shell: a direct cross-shell laser, or a
     relay that also serves the target shell. *)
  let crossing_of c snap ~target_shell node =
    (* Direct laser into the target shell. *)
    let laser =
      List.find_map
        (fun (v, li) ->
          match snap.Snapshot.links.(li).Link.kind with
          | Link.Cross_shell_laser when shell_of c v = target_shell ->
              Some [ node; v ]
          | Link.Cross_shell_laser | Link.Intra_orbit | Link.Inter_orbit
          | Link.Relay ->
              None)
        (Snapshot.neighbors snap node)
    in
    match laser with
    | Some _ as r -> r
    | None ->
        (* Bent pipe: relay neighbour with a foot in the target shell. *)
        List.find_map
          (fun (relay, li) ->
            match snap.Snapshot.links.(li).Link.kind with
            | Link.Relay ->
                List.find_map
                  (fun (gamma, _) ->
                    if gamma <> node && shell_of c gamma = target_shell then
                      Some [ node; relay; gamma ]
                    else None)
                  (Snapshot.neighbors snap relay)
            | Link.Intra_orbit | Link.Inter_orbit | Link.Cross_shell_laser ->
                None)
          (Snapshot.neighbors snap node)

  let dedup_paths paths =
    let seen = Hashtbl.create 16 in
    List.filter
      (fun (p : Path.t) ->
        if Hashtbl.mem seen p.Path.nodes then false
        else begin
          Hashtbl.replace seen p.Path.nodes ();
          true
        end)
      paths

  (* Staircase candidates valid in the snapshot, same shell. *)
  let valid_intra c snap ~src ~dst ~k =
    if src = dst then []
    else
      intra_shell_candidates c ~src ~dst ~limit:(max 64 (k * 16))
      |> List.filter (Path.valid_in snap)
      |> fun l -> List.filteri (fun i _ -> i < k) l

  let concat_prefix prefix (tail : Path.t) =
    (* prefix ends at the node that starts tail. *)
    match prefix with
    | [] -> Some tail
    | _ ->
        let nodes = Array.of_list (prefix @ List.tl (Path.to_list tail)) in
        let p = { Path.nodes } in
        if Path.is_loopless p then Some p else None

  let top_up_with_yen snap ~src ~dst ~k found =
    if List.length found >= k then found
    else
      let extra = Yen.k_shortest snap ~src ~dst ~k in
      dedup_paths (found @ extra) |> fun l -> List.filteri (fun i _ -> i < k) l

  let k_shortest c snap ~src ~dst ~k =
    if src = dst || k <= 0 then []
    else if src >= Constellation.size c || dst >= Constellation.size c then
      (* Relay endpoints: no grid structure, fall back to Yen. *)
      Yen.k_shortest snap ~src ~dst ~k
    else begin
      let s_shell = shell_of c src and d_shell = shell_of c dst in
      let found =
        if s_shell = d_shell then valid_intra c snap ~src ~dst ~k
        else begin
          (* Walk shell by shell toward the destination shell, crossing
             at the nearest available crossing each time.  Invariant:
             [prefix] is the node list from [src] ending at [current]. *)
          let rec walk prefix current current_shell =
            if current_shell = d_shell then
              if current = dst then
                if List.length prefix >= 2 then [ Path.of_list prefix ] else []
              else
                let tails = valid_intra c snap ~src:current ~dst ~k in
                List.filter_map (fun tail -> concat_prefix prefix tail) tails
            else
              let target_shell =
                if d_shell > current_shell then current_shell + 1
                else current_shell - 1
              in
              (* Cross at alpha, the nearest node of this shell holding
                 a crossing; the BFS that finds alpha also returns the
                 same-shell node list current..alpha. *)
              match
                Dijkstra.bfs_nearest snap ~src:current ~follow:same_shell_link
                  ~accept:(crossing_of c snap ~target_shell)
              with
              | None -> []
              | Some (to_alpha, crossing) ->
                  (* prefix ends at current = head of to_alpha;
                     to_alpha ends at alpha = head of crossing. *)
                  let gamma = List.nth crossing (List.length crossing - 1) in
                  let joined = prefix @ List.tl to_alpha @ List.tl crossing in
                  walk joined gamma target_shell
          in
          walk [ src ] src s_shell |> dedup_paths
          |> List.filter (fun p -> Path.is_loopless p && Path.valid_in snap p)
          |> fun l -> List.filteri (fun i _ -> i < k) l
        end
      in
      top_up_with_yen snap ~src ~dst ~k found
    end
end
