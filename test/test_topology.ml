(* Tests for Sate_topology: spatial index, snapshots, builder rules,
   dynamics analyses. *)

module Geo = Sate_geo.Geo
module Constellation = Sate_orbit.Constellation
module Spatial_index = Sate_topology.Spatial_index
module Link = Sate_topology.Link
module Snapshot = Sate_topology.Snapshot
module Builder = Sate_topology.Builder
module Analysis = Sate_topology.Analysis
module Relay_sites = Sate_topology.Relay_sites
module Rng = Sate_util.Rng

let mk_link u v =
  { Link.u; v; kind = Link.Intra_orbit; capacity_mbps = 200.0; length_km = 100.0 }

let square_snapshot () =
  (* 0-1-2-3 ring. *)
  let pos = Array.init 4 (fun i ->
      Geo.of_lat_lon ~lat_deg:0.0 ~lon_deg:(float_of_int i *. 10.0) ~alt_km:550.0)
  in
  Snapshot.make ~time_s:0.0 ~num_sats:4 ~sat_positions:pos ~relay_positions:[||]
    ~links:[ mk_link 0 1; mk_link 1 2; mk_link 2 3; mk_link 3 0 ]

let test_snapshot_adjacency () =
  let s = square_snapshot () in
  Alcotest.(check int) "degree" 2 (Snapshot.degree s 0);
  Alcotest.(check bool) "0-1 linked" true (Snapshot.link_index s 0 1 >= 0);
  Alcotest.(check bool) "0-2 not linked" true (Snapshot.link_index s 0 2 < 0);
  Alcotest.(check int) "nodes" 4 (Snapshot.num_nodes s)

let test_snapshot_rejects_self_loop () =
  let pos = Array.make 2 (Geo.of_lat_lon ~lat_deg:0.0 ~lon_deg:0.0 ~alt_km:550.0) in
  Alcotest.check_raises "self loop" (Invalid_argument "Snapshot.make: self-loop")
    (fun () ->
      ignore
        (Snapshot.make ~time_s:0.0 ~num_sats:2 ~sat_positions:pos
           ~relay_positions:[||] ~links:[ mk_link 1 1 ]))

let test_snapshot_rejects_duplicate () =
  let pos = Array.make 2 (Geo.of_lat_lon ~lat_deg:0.0 ~lon_deg:0.0 ~alt_km:550.0) in
  Alcotest.check_raises "duplicate" (Invalid_argument "Snapshot.make: duplicate link")
    (fun () ->
      ignore
        (Snapshot.make ~time_s:0.0 ~num_sats:2 ~sat_positions:pos
           ~relay_positions:[||] ~links:[ mk_link 0 1; mk_link 1 0 ]))

(* [(added, removed)] link counts going from [a] to [b]. *)
let link_churn a b =
  let ka = Snapshot.link_keys a and kb = Snapshot.link_keys b in
  let absent keys from =
    Array.fold_left (fun n k -> if Array.mem k from then n else n + 1) 0 keys
  in
  (absent kb ka, absent ka kb)

let test_snapshot_equal_and_diff () =
  let a = square_snapshot () in
  let b = square_snapshot () in
  Alcotest.(check bool) "equal" true (Snapshot.equal_topology a b);
  let c = Snapshot.remove_links a [ (0, 1) ] in
  Alcotest.(check bool) "not equal" false (Snapshot.equal_topology a c);
  let added, removed = link_churn a c in
  Alcotest.(check int) "added" 0 added;
  Alcotest.(check int) "removed" 1 removed

let test_path_valid () =
  let s = square_snapshot () in
  Alcotest.(check bool) "ring path valid" true (Snapshot.path_valid s [| 0; 1; 2 |]);
  Alcotest.(check bool) "chord invalid" false (Snapshot.path_valid s [| 0; 2 |]);
  (* Checked for every stored path each round: no allocation. *)
  let ring = [| 0; 1; 2 |] in
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Sys.opaque_identity (Snapshot.path_valid s ring))
  done;
  let words = Gc.minor_words () -. before in
  if words > 16.0 then Alcotest.failf "path_valid allocated %.0f words in 1000 calls" words

(* The one hop-to-link lookup: the same index from either end, -1 for
   a missing hop, and no allocation. *)
let test_link_index () =
  let s = square_snapshot () in
  Array.iteri
    (fun i l ->
      Alcotest.(check int) "u -> v" i (Snapshot.link_index s l.Link.u l.Link.v);
      Alcotest.(check int) "v -> u" i (Snapshot.link_index s l.Link.v l.Link.u))
    s.Snapshot.links;
  Alcotest.(check int) "chord absent" (-1) (Snapshot.link_index s 0 2);
  Alcotest.(check int) "chord absent reversed" (-1) (Snapshot.link_index s 2 0);
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Sys.opaque_identity (Snapshot.link_index s 3 0))
  done;
  let words = Gc.minor_words () -. before in
  if words > 16.0 then Alcotest.failf "link_index allocated %.0f words in 1000 calls" words

let test_spatial_index_vs_brute_force () =
  let rng = Rng.create 99 in
  let pts =
    Array.init 300 (fun _ ->
        Geo.of_lat_lon
          ~lat_deg:(Rng.uniform rng (-60.0) 60.0)
          ~lon_deg:(Rng.uniform rng (-180.0) 180.0)
          ~alt_km:550.0)
  in
  let idx = Spatial_index.build pts in
  for _ = 1 to 50 do
    let q =
      Geo.of_lat_lon
        ~lat_deg:(Rng.uniform rng (-60.0) 60.0)
        ~lon_deg:(Rng.uniform rng (-180.0) 180.0)
        ~alt_km:540.0
    in
    let brute = ref (-1) and brute_d = ref Float.infinity in
    Array.iteri
      (fun i p ->
        let d = Geo.distance q p in
        if d < !brute_d then begin
          brute_d := d;
          brute := i
        end)
      pts;
    match Spatial_index.nearest idx q ~max_km:20000.0 with
    | Some (i, d) ->
        Alcotest.(check int) "same nearest" !brute i;
        Alcotest.(check (float 1e-6)) "same distance" !brute_d d
    | None -> Alcotest.fail "expected a nearest point"
  done

let test_spatial_index_max_km () =
  let pts = [| Geo.of_lat_lon ~lat_deg:0.0 ~lon_deg:0.0 ~alt_km:550.0 |] in
  let idx = Spatial_index.build pts in
  let q = Geo.of_lat_lon ~lat_deg:0.0 ~lon_deg:90.0 ~alt_km:550.0 in
  Alcotest.(check bool) "outside max_km" true (Spatial_index.nearest idx q ~max_km:100.0 = None)

let test_spatial_index_within () =
  let pts =
    Array.init 10 (fun i ->
        Geo.of_lat_lon ~lat_deg:0.0 ~lon_deg:(float_of_int i) ~alt_km:550.0)
  in
  let idx = Spatial_index.build pts in
  let q = pts.(0) in
  let close = Spatial_index.within idx q ~radius_km:200.0 in
  (* 1 degree at 6921 km radius is ~121 km: expect self + neighbour. *)
  Alcotest.(check int) "two within 200km" 2 (List.length close)

let iridium_snapshot () =
  let b = Builder.create Constellation.iridium in
  b, Builder.snapshot b ~time_s:0.0

let test_builder_iridium_structure () =
  let _, s = iridium_snapshot () in
  (* Single shell: only intra/inter-orbit links. *)
  Array.iter
    (fun l ->
      match l.Link.kind with
      | Link.Intra_orbit | Link.Inter_orbit -> ()
      | Link.Cross_shell_laser | Link.Relay -> Alcotest.fail "unexpected cross-shell link")
    s.Snapshot.links;
  (* Every satellite has its two intra-orbit neighbours. *)
  for i = 0 to 65 do
    let intra =
      List.filter
        (fun (_, li) -> s.Snapshot.links.(li).Link.kind = Link.Intra_orbit)
        (Snapshot.neighbors s i)
    in
    Alcotest.(check int) "two intra-orbit links" 2 (List.length intra)
  done

let test_builder_high_latitude_cutoff () =
  let _, s = iridium_snapshot () in
  Array.iter
    (fun l ->
      if l.Link.kind = Link.Inter_orbit then begin
        let lat_u = Float.abs (Geo.latitude_deg s.Snapshot.sat_positions.(l.Link.u)) in
        let lat_v = Float.abs (Geo.latitude_deg s.Snapshot.sat_positions.(l.Link.v)) in
        Alcotest.(check bool) "both endpoints below threshold" true
          (lat_u <= 75.0 && lat_v <= 75.0)
      end)
    s.Snapshot.links;
  (* No latitude exceeds a 90-degree cut-off: all 6 x 11 inter-orbit
     links of Iridium's wrapped grid are up, more than at 75. *)
  let inter s =
    Array.fold_left
      (fun n l -> if l.Link.kind = Link.Inter_orbit then n + 1 else n)
      0 s.Snapshot.links
  in
  let b90 =
    Builder.create
      ~config:{ Builder.default_config with Builder.high_latitude_deg = 90.0 }
      Constellation.iridium
  in
  let s90 = Builder.snapshot b90 ~time_s:0.0 in
  Alcotest.(check int) "all inter-orbit links at 90" 66 (inter s90);
  Alcotest.(check bool) "75 cuts some" true (inter s < 66)

let test_builder_cross_shell_laser_range () =
  let c = Constellation.mid_size ~plane_divisor:8 in
  let b = Builder.create c in
  let s = Builder.snapshot b ~time_s:0.0 in
  let cross =
    Array.to_list s.Snapshot.links
    |> List.filter (fun l -> l.Link.kind = Link.Cross_shell_laser)
  in
  Alcotest.(check bool) "cross-shell links exist" true (cross <> []);
  List.iter
    (fun l ->
      Alcotest.(check bool) "laser within 2000 km" true (l.Link.length_km <= 2000.0))
    cross

let test_builder_relay_elevation () =
  let c = Constellation.mid_size ~plane_divisor:8 in
  let b =
    Builder.create
      ~config:{ Builder.default_config with Builder.cross_shell = Builder.Ground_relays }
      c
  in
  let s = Builder.snapshot b ~time_s:0.0 in
  let relays =
    Array.to_list s.Snapshot.links |> List.filter (fun l -> l.Link.kind = Link.Relay)
  in
  Alcotest.(check bool) "relay links exist" true (relays <> []);
  List.iter
    (fun l ->
      let sat, relay = if l.Link.u < s.Snapshot.num_sats then (l.Link.u, l.Link.v) else (l.Link.v, l.Link.u) in
      let elev =
        Geo.elevation_angle_deg
          ~ground:(Snapshot.position s relay)
          ~sat:(Snapshot.position s sat)
      in
      Alcotest.(check bool) "elevation >= 25" true (elev >= 25.0))
    relays

let test_builder_time_monotonic () =
  let b = Builder.create Constellation.iridium in
  ignore (Builder.snapshot b ~time_s:10.0);
  Alcotest.check_raises "decreasing time"
    (Invalid_argument "Builder.snapshot: time must be non-decreasing (use reset)")
    (fun () -> ignore (Builder.snapshot b ~time_s:5.0));
  Builder.reset b;
  ignore (Builder.snapshot b ~time_s:0.0)

let test_builder_hysteresis_stability () =
  (* Two consecutive close snapshots should share most links. *)
  let c = Constellation.mid_size ~plane_divisor:8 in
  let b = Builder.create c in
  let s1 = Builder.snapshot b ~time_s:0.0 in
  let s2 = Builder.snapshot b ~time_s:0.0125 in
  let added, removed = link_churn s1 s2 in
  let total = Array.length s1.Snapshot.links in
  Alcotest.(check bool) "churn under 2%" true
    (float_of_int (added + removed) < 0.02 *. float_of_int total)

let test_relay_sites () =
  let sites = Relay_sites.generate () in
  Alcotest.(check int) "222 sites" 222 (Array.length sites);
  Array.iter
    (fun p ->
      Alcotest.(check (float 1.0)) "on the surface" Geo.earth_radius_km (Geo.norm p))
    sites

let test_holding_times () =
  let b = Builder.create Constellation.iridium in
  let ht = Analysis.holding_times_ms b ~start_s:0.0 ~dt_s:1.0 ~count:30 in
  let total = Array.fold_left ( +. ) 0.0 ht in
  Alcotest.(check (float 1e-6)) "runs cover the window" 30_000.0 total;
  Array.iter (fun h -> Alcotest.(check bool) "positive" true (h > 0.0)) ht

let test_exclusion_monotonic () =
  let c = Constellation.mid_size ~plane_divisor:8 in
  let b = Builder.create c in
  let series =
    Analysis.exclusion_series b ~start_s:0.0 ~dt_s:5.0 ~intervals:[ 1; 4; 16 ]
  in
  Alcotest.(check int) "three points" 3 (List.length series);
  let ratios = List.map snd series in
  let rec non_decreasing = function
    | a :: (b :: _ as rest) -> a <= b +. 1e-9 && non_decreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "longer interval excludes more" true (non_decreasing ratios);
  List.iter
    (fun (_, r) -> Alcotest.(check bool) "ratio in [0,1]" true (r >= 0.0 && r <= 1.0))
    series

let test_path_obsolescence () =
  let b = Builder.create Constellation.iridium in
  let s0 = Builder.snapshot b ~time_s:0.0 in
  Builder.reset b;
  (* Pick some currently valid 2-hop paths. *)
  let paths =
    List.filter_map
      (fun i ->
        match Snapshot.neighbors s0 i with
        | (a, _) :: (b, _) :: _ -> Some [ a; i; b ]
        | _ -> None)
      (List.init 20 Fun.id)
  in
  let series =
    Analysis.path_obsolescence b ~start_s:0.0 ~dt_s:30.0 ~checkpoints:[ 1; 10 ] ~paths
  in
  (match series with
  | [ (_, f1); (_, f10) ] ->
      Alcotest.(check (float 1e-9)) "fresh paths valid" 0.0 f1;
      Alcotest.(check bool) "obsolescence grows" true (f10 >= f1)
  | _ -> Alcotest.fail "expected two checkpoints")

let test_random_failures () =
  let _, s = iridium_snapshot () in
  let rng = Rng.create 3 in
  let degraded, failed = Analysis.random_link_failures s ~rate:0.3 rng in
  Alcotest.(check bool) "some links failed" true (failed <> []);
  Alcotest.(check int) "links removed"
    (Array.length s.Snapshot.links - List.length failed)
    (Array.length degraded.Snapshot.links);
  let _, none = Analysis.random_link_failures s ~rate:0.0 rng in
  Alcotest.(check int) "zero rate" 0 (List.length none)

let suite =
  [ Alcotest.test_case "snapshot adjacency" `Quick test_snapshot_adjacency;
    Alcotest.test_case "reject self-loop" `Quick test_snapshot_rejects_self_loop;
    Alcotest.test_case "reject duplicate" `Quick test_snapshot_rejects_duplicate;
    Alcotest.test_case "equal and diff" `Quick test_snapshot_equal_and_diff;
    Alcotest.test_case "path valid" `Quick test_path_valid;
    Alcotest.test_case "spatial index correct" `Quick test_spatial_index_vs_brute_force;
    Alcotest.test_case "spatial index max_km" `Quick test_spatial_index_max_km;
    Alcotest.test_case "spatial index within" `Quick test_spatial_index_within;
    Alcotest.test_case "iridium structure" `Quick test_builder_iridium_structure;
    Alcotest.test_case "high latitude cutoff" `Quick test_builder_high_latitude_cutoff;
    Alcotest.test_case "cross-shell laser range" `Quick test_builder_cross_shell_laser_range;
    Alcotest.test_case "relay elevation" `Quick test_builder_relay_elevation;
    Alcotest.test_case "time monotonic" `Quick test_builder_time_monotonic;
    Alcotest.test_case "hysteresis stability" `Quick test_builder_hysteresis_stability;
    Alcotest.test_case "relay sites" `Quick test_relay_sites;
    Alcotest.test_case "holding times" `Quick test_holding_times;
    Alcotest.test_case "exclusion monotonic" `Quick test_exclusion_monotonic;
    Alcotest.test_case "path obsolescence" `Quick test_path_obsolescence;
    Alcotest.test_case "random failures" `Quick test_random_failures;
    Alcotest.test_case "link index" `Quick test_link_index ]
