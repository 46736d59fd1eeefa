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

(* First occurrences only, as the sequence is traversed (once). *)
let dedup_paths paths =
  let seen = Hashtbl.create 16 in
  Seq.filter
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

(* The first [k] distinct paths of [found] followed by Yen's first
   [k].  Yen's n-th path does not depend on how many follow it, and
   [dedup_paths] keeps first occurrences, so Yen runs only until [k]
   distinct paths are in hand: the same list a full run gives. *)
let top_up_with_yen snap ~src ~dst ~k found =
  if List.length found >= k then found
  else
    Seq.append (List.to_seq found) (Seq.take k (Yen.paths snap ~src ~dst))
    |> dedup_paths |> Seq.take k |> List.of_seq

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
        walk [ src ] src s_shell |> List.to_seq |> dedup_paths
        |> Seq.filter (fun p -> Path.is_loopless p && Path.valid_in snap p)
        |> Seq.take k |> List.of_seq
      end
    in
    top_up_with_yen snap ~src ~dst ~k found
  end
