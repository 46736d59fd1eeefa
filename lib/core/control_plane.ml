module Geo = Sate_geo.Geo
module Snapshot = Sate_topology.Snapshot
module Dijkstra = Sate_paths.Dijkstra

(* The control centre of the paper's example. *)
let houston = Geo.of_lat_lon ~lat_deg:29.76 ~lon_deg:(-95.37) ~alt_km:0.0

(* Satellites at least this high above the centre's horizon receive
   rules directly. *)
let min_elevation_deg = 25.0

let rule_distribution_delays_ms (snap : Snapshot.t) =
  (* Multi-source: every satellite in view of the centre is seeded
     with its direct up-link length.  Delay is proportional to length,
     so the km-shortest route is the delay-shortest one. *)
  let sources =
    List.filter_map
      (fun sat ->
        let p = snap.Snapshot.sat_positions.(sat) in
        if Geo.elevation_angle_deg ~ground:houston ~sat:p >= min_elevation_deg then
          Some (sat, Geo.distance houston p)
        else None)
      (List.init snap.Snapshot.num_sats Fun.id)
  in
  let km = Dijkstra.distances ~weight:Dijkstra.Km snap ~sources in
  Array.init snap.Snapshot.num_sats (fun sat ->
      km.(sat) /. Geo.speed_of_light_km_s *. 1000.0)
