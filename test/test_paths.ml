(* Tests for Sate_paths: Path, Dijkstra, Yen, grid paths, path DB. *)

module Geo = Sate_geo.Geo
module Constellation = Sate_orbit.Constellation
module Builder = Sate_topology.Builder
module Snapshot = Sate_topology.Snapshot
module Link = Sate_topology.Link
module Path = Sate_paths.Path
module Dijkstra = Sate_paths.Dijkstra
module Yen = Sate_paths.Yen
module Grid_paths = Sate_paths.Grid_paths
module Path_db = Sate_paths.Path_db

let iridium = Constellation.iridium

let iridium_snapshot () =
  let b = Builder.create iridium in
  Builder.snapshot b ~time_s:0.0

let mid_size_snapshot mode =
  let c = Constellation.mid_size ~plane_divisor:8 in
  let b = Builder.create ~config:{ Builder.default_config with Builder.cross_shell = mode } c in
  (c, Builder.snapshot b ~time_s:0.0)

let test_path_of_list () =
  let p = Path.of_list [ 1; 2; 3 ] in
  Alcotest.(check int) "hops" 2 (Path.hops p);
  Alcotest.(check int) "source" 1 (Path.source p);
  Alcotest.(check int) "destination" 3 (Path.destination p);
  Alcotest.(check bool) "loopless" true (Path.is_loopless p);
  Alcotest.check_raises "single node"
    (Invalid_argument "Path.of_list: need at least two nodes") (fun () ->
      ignore (Path.of_list [ 1 ]));
  Alcotest.check_raises "repeat" (Invalid_argument "Path.of_list: repeated node")
    (fun () -> ignore (Path.of_list [ 1; 1; 2 ]))

let test_path_loop_detection () =
  Alcotest.(check bool) "loop detected" false (Path.is_loopless (Path.of_list [ 1; 2; 1 ]))

let test_dijkstra_reachable () =
  let s = iridium_snapshot () in
  match Dijkstra.shortest s ~src:0 ~dst:40 with
  | Some p ->
      Alcotest.(check int) "starts at src" 0 (Path.source p);
      Alcotest.(check int) "ends at dst" 40 (Path.destination p);
      Alcotest.(check bool) "valid" true (Path.valid_in s p)
  | None -> Alcotest.fail "iridium is connected"

let test_dijkstra_hops_optimal () =
  let s = iridium_snapshot () in
  (* BFS distance must match Dijkstra with hop weights. *)
  let d = Dijkstra.distances s ~sources:[ (0, 0.0) ] in
  match Dijkstra.shortest s ~src:0 ~dst:30 with
  | Some p -> Alcotest.(check (float 1e-9)) "hop count matches" d.(30) (float_of_int (Path.hops p))
  | None -> Alcotest.fail "unreachable"

let test_dijkstra_banned () =
  let s = iridium_snapshot () in
  let via = match Dijkstra.shortest s ~src:0 ~dst:2 with
    | Some p -> Path.to_list p
    | None -> Alcotest.fail "unreachable"
  in
  (* Ban intermediate nodes; new route must avoid them. *)
  let banned = List.filter (fun n -> n <> 0 && n <> 2) via in
  match Dijkstra.shortest ~banned_nodes:(fun n -> List.mem n banned) s ~src:0 ~dst:2 with
  | Some p ->
      List.iter
        (fun n -> Alcotest.(check bool) "avoids banned" false (List.mem n banned))
        (Path.to_list p)
  | None -> () (* disconnection is acceptable *)

let test_dijkstra_km_weight () =
  let s = iridium_snapshot () in
  match Dijkstra.shortest ~weight:Dijkstra.Km s ~src:0 ~dst:7 with
  | Some p ->
      Alcotest.(check bool) "length positive" true (Path.length_km s p > 0.0);
      Alcotest.(check bool) "delay positive" true (Path.delay_ms s p > 0.0)
  | None -> Alcotest.fail "unreachable"

(* Weighted diamond whose cheap edges are discovered late: node 1 is
   queued at 10 then improved to 5 via node 2, and node 3 is queued at
   102 then improved to 7 — both keys decrease after the node already
   sits in the frontier, so a lazy-deletion heap would pop stale
   entries here and only a staleness guard keeps expansion correct. *)
let diamond_snapshot () =
  let pos =
    Array.init 4 (fun i -> { Sate_geo.Geo.x = float_of_int i; y = 0.0; z = 0.0 })
  in
  let link u v length_km =
    { Link.u; v; kind = Link.Intra_orbit; capacity_mbps = 100.0; length_km }
  in
  Snapshot.make ~time_s:0.0 ~num_sats:4 ~sat_positions:pos ~relay_positions:[||]
    ~links:
      [ link 0 1 10.0; link 0 2 2.0; link 1 2 3.0; link 1 3 2.0; link 2 3 100.0 ]

let test_dijkstra_decrease_after_insert () =
  let s = diamond_snapshot () in
  let d = Dijkstra.distances ~weight:Dijkstra.Km s ~sources:[ (0, 0.0) ] in
  Alcotest.(check (array (float 1e-9))) "km distances" [| 0.0; 5.0; 2.0; 7.0 |] d;
  match Dijkstra.shortest ~weight:Dijkstra.Km s ~src:0 ~dst:3 with
  | Some p ->
      Alcotest.(check (list int)) "takes the detour" [ 0; 2; 1; 3 ] (Path.to_list p);
      Alcotest.(check (float 1e-9)) "length" 7.0 (Path.length_km s p)
  | None -> Alcotest.fail "reachable"

(* Seeding several sources is the pointwise minimum of the
   single-source searches, each shifted by its seed distance. *)
let test_dijkstra_multi_source () =
  let s = iridium_snapshot () in
  let single src = Dijkstra.distances ~weight:Dijkstra.Km s ~sources:[ (src, 0.0) ] in
  let a, da = (3, 150.0) and b, db = (40, 2_000.0) in
  let multi = Dijkstra.distances ~weight:Dijkstra.Km s ~sources:[ (a, da); (b, db) ] in
  let from_a = single a and from_b = single b in
  Array.iteri
    (fun v d ->
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "node %d" v)
        (Float.min (da +. from_a.(v)) (db +. from_b.(v)))
        d)
    multi;
  let nearer_a = Array.mapi (fun v _ -> da +. from_a.(v) < db +. from_b.(v)) multi in
  Alcotest.(check bool) "each source is nearest somewhere" true
    (Array.mem true nearer_a && Array.mem false nearer_a);
  Alcotest.check_raises "out-of-range source"
    (Invalid_argument "Dijkstra.distances: node out of range") (fun () ->
      ignore (Dijkstra.distances s ~sources:[ (0, 0.0); (Snapshot.num_nodes s, 0.0) ]));
  Alcotest.check_raises "negative source"
    (Invalid_argument "Dijkstra.distances: node out of range") (fun () ->
      ignore (Dijkstra.distances s ~sources:[ (-1, 0.0) ]))

let test_yen_properties () =
  let s = iridium_snapshot () in
  let k = 5 in
  let paths = Yen.k_shortest s ~src:0 ~dst:25 ~k in
  Alcotest.(check bool) "got some paths" true (List.length paths >= 1);
  Alcotest.(check bool) "at most k" true (List.length paths <= k);
  (* All valid, loopless, correct endpoints, unique. *)
  List.iter
    (fun p ->
      Alcotest.(check bool) "valid" true (Path.valid_in s p);
      Alcotest.(check bool) "loopless" true (Path.is_loopless p);
      Alcotest.(check int) "src" 0 (Path.source p);
      Alcotest.(check int) "dst" 25 (Path.destination p))
    paths;
  let uniq = List.sort_uniq Path.compare paths in
  Alcotest.(check int) "unique" (List.length paths) (List.length uniq);
  (* Non-decreasing hop counts. *)
  let hops = List.map Path.hops paths in
  Alcotest.(check (list int)) "sorted by cost" (List.sort compare hops) hops

let test_yen_first_is_shortest () =
  let s = iridium_snapshot () in
  match (Yen.k_shortest s ~src:3 ~dst:50 ~k:3, Dijkstra.shortest s ~src:3 ~dst:50) with
  | p1 :: _, Some sp ->
      Alcotest.(check int) "first path is shortest" (Path.hops sp) (Path.hops p1)
  | _ -> Alcotest.fail "expected paths"

let test_grid_intra_candidates () =
  (* Iridium: 6 planes x 11 slots.  From (0,0) to (2,3): dx=2, dy=3,
     C(5,2) = 10 staircases. *)
  let src = Constellation.id_of_coord iridium { Constellation.shell = 0; plane = 0; slot = 0 } in
  let dst = Constellation.id_of_coord iridium { Constellation.shell = 0; plane = 2; slot = 3 } in
  let cands = Grid_paths.intra_shell_candidates iridium ~src ~dst ~limit:100 in
  Alcotest.(check int) "C(5,2) staircases" 10 (List.length cands);
  List.iter
    (fun p ->
      Alcotest.(check int) "min hops" 5 (Path.hops p);
      Alcotest.(check int) "src" src (Path.source p);
      Alcotest.(check int) "dst" dst (Path.destination p);
      Alcotest.(check bool) "loopless" true (Path.is_loopless p))
    cands;
  let uniq = List.sort_uniq Path.compare cands in
  Alcotest.(check int) "unique" 10 (List.length uniq)

let test_grid_wraparound () =
  (* Wrap in the plane dimension: plane 5 -> plane 0 is one hop. *)
  let src = Constellation.id_of_coord iridium { Constellation.shell = 0; plane = 5; slot = 0 } in
  let dst = Constellation.id_of_coord iridium { Constellation.shell = 0; plane = 0; slot = 0 } in
  let cands = Grid_paths.intra_shell_candidates iridium ~src ~dst ~limit:10 in
  match cands with
  | [ p ] -> Alcotest.(check int) "one hop across the seam" 1 (Path.hops p)
  | _ -> Alcotest.fail "expected exactly one minimal path"

let test_grid_k_shortest_same_shell () =
  let s = iridium_snapshot () in
  let paths = Grid_paths.k_shortest iridium s ~src:0 ~dst:35 ~k:4 in
  Alcotest.(check bool) "paths found" true (List.length paths >= 1);
  List.iter
    (fun p ->
      Alcotest.(check bool) "valid" true (Path.valid_in s p);
      Alcotest.(check bool) "loopless" true (Path.is_loopless p);
      Alcotest.(check int) "src" 0 (Path.source p);
      Alcotest.(check int) "dst" 35 (Path.destination p))
    paths

let test_grid_k_shortest_matches_optimal_hops () =
  let s = iridium_snapshot () in
  List.iter
    (fun (src, dst) ->
      match (Grid_paths.k_shortest iridium s ~src ~dst ~k:1, Dijkstra.shortest s ~src ~dst) with
      | p :: _, Some sp ->
          Alcotest.(check int)
            (Printf.sprintf "grid optimal %d->%d" src dst)
            (Path.hops sp) (Path.hops p)
      | [], None -> ()
      | [], Some _ -> Alcotest.fail "grid found nothing but Dijkstra did"
      | _ :: _, None -> Alcotest.fail "grid found a path where none exists")
    [ (0, 12); (5, 60); (11, 44); (2, 3) ]

let test_grid_cross_shell_laser () =
  let c, s = mid_size_snapshot Builder.Lasers in
  let shells = Constellation.shells c in
  let shell1_start = Sate_orbit.Shell.size shells.(0) in
  let src = 0 and dst = shell1_start + 50 in
  let paths = Grid_paths.k_shortest c s ~src ~dst ~k:3 in
  Alcotest.(check bool) "cross-shell paths found" true (List.length paths >= 1);
  List.iter
    (fun p ->
      Alcotest.(check bool) "valid" true (Path.valid_in s p);
      Alcotest.(check int) "src" src (Path.source p);
      Alcotest.(check int) "dst" dst (Path.destination p))
    paths

let test_grid_cross_shell_relay () =
  let c, s = mid_size_snapshot Builder.Ground_relays in
  let shells = Constellation.shells c in
  let shell1_start = Sate_orbit.Shell.size shells.(0) in
  let src = 3 and dst = shell1_start + 20 in
  let paths = Grid_paths.k_shortest c s ~src ~dst ~k:3 in
  Alcotest.(check bool) "bent-pipe paths found" true (List.length paths >= 1);
  List.iter
    (fun p -> Alcotest.(check bool) "valid" true (Path.valid_in s p))
    paths

let test_path_db_compute_and_update () =
  let b = Builder.create iridium in
  let s0 = Builder.snapshot b ~time_s:0.0 in
  let pairs = [ (0, 20); (5, 40); (11, 60) ] in
  let db = Path_db.compute iridium s0 ~pairs ~k:3 in
  let n_pairs, n_paths = Path_db.stats db in
  Alcotest.(check int) "three pairs" 3 n_pairs;
  Alcotest.(check bool) "paths stored" true (n_paths >= 3);
  (* Unchanged topology: update recomputes nothing. *)
  let _, recomputed = Path_db.update db s0 in
  Alcotest.(check int) "no recompute on same snapshot" 0 recomputed;
  (* Add a pair. *)
  let db2 = Path_db.add_pairs db s0 [ (1, 2) ] in
  Alcotest.(check int) "four pairs" 4 (fst (Path_db.stats db2));
  Alcotest.(check bool) "existing untouched" true
    (Path_db.find db2 ~src:0 ~dst:20 = Path_db.find db ~src:0 ~dst:20);
  (* A store searches new pairs only on its own snapshot. *)
  Alcotest.check_raises "add on another snapshot"
    (Invalid_argument "Path_db.add_pairs: not the store's snapshot") (fun () ->
      ignore (Path_db.add_pairs db (Builder.snapshot b ~time_s:1.0) [ (1, 2) ]))

let test_path_db_update_after_break () =
  let b = Builder.create iridium in
  let s0 = Builder.snapshot b ~time_s:0.0 in
  let pairs = [ (0, 20); (5, 40) ] in
  let db = Path_db.compute iridium s0 ~pairs ~k:3 in
  (* Remove the links of the first stored path of pair (0, 20). *)
  let victim = (Path_db.find db ~src:0 ~dst:20).Path_db.paths.(0) in
  let nodes = Path.to_list victim in
  let rec pairs_of = function
    | a :: (b :: _ as rest) -> (a, b) :: pairs_of rest
    | _ -> []
  in
  let degraded = Snapshot.remove_links s0 (pairs_of nodes) in
  let db', recomputed = Path_db.update db degraded in
  Alcotest.(check bool) "at least one pair recomputed" true (recomputed >= 1);
  List.iter
    (fun (src, dst) ->
      let e = Path_db.find db' ~src ~dst in
      Array.iteri
        (fun i p ->
          Alcotest.(check bool) "paths valid after update" true (Path.valid_in degraded p);
          Alcotest.(check bool) "links resolved in the new snapshot" true
            (Path.link_indices degraded p = Some e.Path_db.links.(i)))
        e.Path_db.paths)
    pairs

let test_link_indices () =
  let s = iridium_snapshot () in
  match Dijkstra.shortest s ~src:0 ~dst:10 with
  | Some p -> (
      (match Path.link_indices s p with
      | Some links ->
          Alcotest.(check int) "one index per hop" (Path.hops p) (Array.length links);
          Array.iter
            (fun li ->
              Alcotest.(check bool) "index in range" true
                (li >= 0 && li < Array.length s.Snapshot.links))
            links
      | None -> Alcotest.fail "valid path has a missing hop");
      (* Once a hop's link is gone: None, exactly when valid_in fails. *)
      match Path.to_list p with
      | a :: b :: _ ->
          let degraded = Snapshot.remove_links s [ (a, b) ] in
          Alcotest.(check bool) "None on a missing hop" true
            (Path.link_indices degraded p = None);
          Alcotest.(check bool) "agrees with valid_in" false (Path.valid_in degraded p)
      | _ -> Alcotest.fail "a path has two nodes")
  | None -> Alcotest.fail "unreachable"

(* Banning the link index of one hop of the shortest path: the new
   route never uses that link. *)
let test_dijkstra_banned_link () =
  let s = iridium_snapshot () in
  let links_of p = Option.get (Path.link_indices s p) in
  match Dijkstra.shortest s ~src:0 ~dst:30 with
  | None -> Alcotest.fail "unreachable"
  | Some p -> (
      let first = links_of p in
      let banned = first.(Array.length first / 2) in
      match Dijkstra.shortest ~banned_links:(fun li -> li = banned) s ~src:0 ~dst:30 with
      | None -> Alcotest.fail "one banned link cannot cut iridium"
      | Some q ->
          Alcotest.(check bool) "avoids the banned link" false
            (Array.mem banned (links_of q));
          Alcotest.(check bool) "not shorter" true (Path.hops q >= Path.hops p))

(* The BFS returns the path it walked: from src, along followed links
   only, to the first accepted node, at its BFS hop distance. *)
let test_bfs_nearest_path () =
  let s = iridium_snapshot () in
  let follow (l : Link.t) = l.Link.kind = Link.Intra_orbit in
  (* Reference hop distances over the followed links alone. *)
  let unfollowed =
    Array.to_list s.Snapshot.links
    |> List.filter (fun l -> not (follow l))
    |> List.map Link.key
  in
  let dist =
    Dijkstra.distances (Snapshot.remove_links s unfollowed) ~sources:[ (0, 0.0) ]
  in
  (* Plane 1 is one unfollowed inter-orbit hop away, so only the
     plane-0 target is reachable along followed links. *)
  let id plane slot = Constellation.id_of_coord iridium { Constellation.shell = 0; plane; slot } in
  let targets = id 0 5 :: List.init 11 (id 1) in
  let accept v = if List.mem v targets then Some (v * 10) else None in
  match Dijkstra.bfs_nearest s ~src:0 ~follow ~accept with
  | None -> Alcotest.fail "a target shares the source's plane"
  | Some (nodes, found) ->
      let last = List.nth nodes (List.length nodes - 1) in
      Alcotest.(check int) "starts at src" 0 (List.hd nodes);
      Alcotest.(check int) "returns what accept found" (last * 10) found;
      let nearest = List.fold_left (fun m v -> Float.min m dist.(v)) Float.infinity targets in
      Alcotest.(check (float 0.0)) "first accepted is nearest" nearest dist.(last);
      Alcotest.(check (float 0.0)) "hop distance" dist.(last)
        (float_of_int (List.length nodes - 1));
      let rec hops = function
        | u :: (v :: _ as rest) ->
            let li = Snapshot.link_index s u v in
            Alcotest.(check bool) "hop is a link" true (li >= 0);
            Alcotest.(check bool) "hop is followed" true (follow s.Snapshot.links.(li));
            hops rest
        | [ _ ] | [] -> ()
      in
      hops nodes;
      (match Dijkstra.bfs_nearest s ~src:5 ~follow ~accept:(fun v -> Some v) with
      | Some ([ 5 ], 5) -> ()
      | _ -> Alcotest.fail "an accepted source is its own one-node path")

(* Differential tests against [Yen_reference], the search before it
   ran on one reused workspace: same paths, same order, bit for bit. *)
module Ref = Yen_reference

let path_lists = Alcotest.(list (list int))
let lists = List.map Path.to_list
let path_option = Alcotest.(option (list int))

let random_pairs seed n count =
  let rng = Sate_util.Rng.create seed in
  List.init count (fun _ -> (Sate_util.Rng.int rng n, Sate_util.Rng.int rng n))
  |> List.filter (fun (a, b) -> a <> b)

(* Iridium, and Starlink 396 with lasers and with ground relays, each
   at t = 0 and 10 minutes on. *)
let differential_snapshots () =
  let at c mode t =
    let b = Builder.create ~config:{ Builder.default_config with Builder.cross_shell = mode } c in
    (c, Builder.snapshot b ~time_s:t)
  in
  let mid = Constellation.mid_size ~plane_divisor:8 in
  List.concat_map
    (fun t ->
      [ at iridium Builder.Lasers t; at mid Builder.Lasers t; at mid Builder.Ground_relays t ])
    [ 0.0; 600.0 ]

let test_yen_matches_reference () =
  List.iteri
    (fun si (c, s) ->
      List.iter
        (fun (src, dst) ->
          let name = Printf.sprintf "snapshot %d, %d->%d" si src dst in
          Alcotest.check path_lists (name ^ " yen k=4")
            (lists (Ref.Yen.k_shortest s ~src ~dst ~k:4))
            (lists (Yen.k_shortest s ~src ~dst ~k:4));
          Alcotest.check path_lists (name ^ " grid k=4")
            (lists (Ref.Grid_paths.k_shortest c s ~src ~dst ~k:4))
            (lists (Grid_paths.k_shortest c s ~src ~dst ~k:4)))
        (random_pairs (si + 1) (Constellation.size c) 40);
      (* A longer Yen run, and every prefix of it from the sequence. *)
      let src, dst = (0, Constellation.size c / 2) in
      let full = lists (Ref.Yen.k_shortest s ~src ~dst ~k:12) in
      Alcotest.check path_lists "yen k=12" full (lists (Yen.k_shortest s ~src ~dst ~k:12));
      List.iteri
        (fun i _ ->
          Alcotest.check path_lists "yen prefix" (List.filteri (fun j _ -> j <= i) full)
            (lists (List.of_seq (Seq.take (i + 1) (Yen.paths s ~src ~dst)))))
        full)
    (differential_snapshots ())

(* Relay endpoints have no grid structure: Grid_paths falls back to
   Yen on both sides. *)
let test_relay_endpoints_match_reference () =
  let c, s = mid_size_snapshot Builder.Ground_relays in
  let sats = Constellation.size c and relays = s.Snapshot.num_relays in
  Alcotest.(check bool) "bent pipe has relays" true (relays > 0);
  let rng = Sate_util.Rng.create 7 in
  for _ = 1 to 30 do
    let relay = sats + Sate_util.Rng.int rng relays in
    let other = Sate_util.Rng.int rng (sats + relays) in
    List.iter
      (fun (src, dst) ->
        if src <> dst then
          Alcotest.check path_lists
            (Printf.sprintf "%d->%d" src dst)
            (lists (Ref.Grid_paths.k_shortest c s ~src ~dst ~k:4))
            (lists (Grid_paths.k_shortest c s ~src ~dst ~k:4)))
      [ (relay, other); (other, relay) ]
  done

(* Dijkstra.shortest with ban closures, and seeded distances, in both
   weights. *)
let test_dijkstra_matches_reference () =
  List.iteri
    (fun si (_, s) ->
      let n = Snapshot.num_nodes s and m = Array.length s.Snapshot.links in
      let rng = Sate_util.Rng.create (100 + si) in
      let nodes = Array.init n (fun _ -> Sate_util.Rng.int rng 10 = 0) in
      let links = Array.init m (fun _ -> Sate_util.Rng.int rng 10 = 0) in
      List.iter
        (fun weight ->
          List.iter
            (fun (src, dst) ->
              let name = Printf.sprintf "snapshot %d, %d->%d" si src dst in
              Alcotest.check path_option (name ^ " plain")
                (Option.map Path.to_list (Ref.Dijkstra.shortest ~weight s ~src ~dst))
                (Option.map Path.to_list (Dijkstra.shortest ~weight s ~src ~dst));
              Alcotest.check path_option (name ^ " banned")
                (Option.map Path.to_list
                   (Ref.Dijkstra.shortest ~weight ~banned_nodes:(Array.get nodes)
                      ~banned_links:(Array.get links) s ~src ~dst))
                (Option.map Path.to_list
                   (Dijkstra.shortest ~weight ~banned_nodes:(Array.get nodes)
                      ~banned_links:(Array.get links) s ~src ~dst)))
            (random_pairs (200 + si) n 20);
          let sources = [ (0, 0.0); (n / 3, 1.5); (n - 1, 700.0) ] in
          Alcotest.(check (array (float 0.0))) "distances"
            (Ref.Dijkstra.distances ~weight s ~sources)
            (Dijkstra.distances ~weight s ~sources))
        [ Dijkstra.Hops; Dijkstra.Km ])
    (differential_snapshots ())

let prop_grid_candidates_minimal =
  (* All staircase candidates have exactly the wrapped Manhattan hop
     count. *)
  QCheck.Test.make ~name:"staircase candidates are minimum-hop" ~count:100
    QCheck.(pair (int_bound 65) (int_bound 65))
    (fun (src, dst) ->
      QCheck.assume (src <> dst);
      let cands = Grid_paths.intra_shell_candidates iridium ~src ~dst ~limit:32 in
      match cands with
      | [] -> false
      | first :: _ ->
          let h = Path.hops first in
          List.for_all (fun p -> Path.hops p = h) cands)

let prop_yen_loopless =
  QCheck.Test.make ~name:"yen paths loopless and valid" ~count:40
    QCheck.(pair (int_bound 65) (int_bound 65))
    (fun (src, dst) ->
      QCheck.assume (src <> dst);
      let s = iridium_snapshot () in
      Yen.k_shortest s ~src ~dst ~k:3
      |> List.for_all (fun p -> Path.is_loopless p && Path.valid_in s p))

let suite =
  [ Alcotest.test_case "path of_list" `Quick test_path_of_list;
    Alcotest.test_case "loop detection" `Quick test_path_loop_detection;
    Alcotest.test_case "dijkstra reachable" `Quick test_dijkstra_reachable;
    Alcotest.test_case "dijkstra optimal" `Quick test_dijkstra_hops_optimal;
    Alcotest.test_case "dijkstra banned" `Quick test_dijkstra_banned;
    Alcotest.test_case "dijkstra km" `Quick test_dijkstra_km_weight;
    Alcotest.test_case "dijkstra decrease-after-insert" `Quick
      test_dijkstra_decrease_after_insert;
    Alcotest.test_case "yen properties" `Quick test_yen_properties;
    Alcotest.test_case "yen first shortest" `Quick test_yen_first_is_shortest;
    Alcotest.test_case "grid intra candidates" `Quick test_grid_intra_candidates;
    Alcotest.test_case "grid wraparound" `Quick test_grid_wraparound;
    Alcotest.test_case "grid same shell" `Quick test_grid_k_shortest_same_shell;
    Alcotest.test_case "grid optimal hops" `Quick test_grid_k_shortest_matches_optimal_hops;
    Alcotest.test_case "grid cross-shell laser" `Quick test_grid_cross_shell_laser;
    Alcotest.test_case "grid cross-shell relay" `Quick test_grid_cross_shell_relay;
    Alcotest.test_case "path db compute/update" `Quick test_path_db_compute_and_update;
    Alcotest.test_case "path db after break" `Quick test_path_db_update_after_break;
    Alcotest.test_case "link indices" `Quick test_link_indices;
    QCheck_alcotest.to_alcotest prop_grid_candidates_minimal;
    QCheck_alcotest.to_alcotest prop_yen_loopless;
    Alcotest.test_case "dijkstra multi-source" `Quick test_dijkstra_multi_source;
    Alcotest.test_case "dijkstra banned link" `Quick test_dijkstra_banned_link;
    Alcotest.test_case "bfs nearest path" `Quick test_bfs_nearest_path;
    Alcotest.test_case "yen and grid match reference" `Quick test_yen_matches_reference;
    Alcotest.test_case "relay endpoints match reference" `Quick
      test_relay_endpoints_match_reference;
    Alcotest.test_case "dijkstra matches reference" `Quick test_dijkstra_matches_reference ]
