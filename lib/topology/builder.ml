module Geo = Sate_geo.Geo
module Constellation = Sate_orbit.Constellation
module Shell = Sate_orbit.Shell

type cross_shell_mode = Lasers | Ground_relays

type config = {
  cross_shell : cross_shell_mode;
  high_latitude_deg : float;
}

let default_config = { cross_shell = Lasers; high_latitude_deg = 75.0 }

(* Section 2.3.1: cross-shell laser range and bent-pipe elevation
   mask.  Section 4: every link carries 200 Mbps (scaled units). *)
let laser_max_km = 2000.0
let relay_min_elevation_deg = 25.0
let link_capacity_mbps = 200.0

type t = {
  config : config;
  constellation : Constellation.t;
  relays : Geo.vec3 array;
  relay_index : Spatial_index.t option;
  partner_up : int option array; (* laser partner in the shell above *)
  partner_down : int option array; (* laser partner in the shell below *)
  relay_partner : int option array; (* relay index per satellite *)
  relay_retry_at : float array; (* earliest next relay search per satellite *)
  mutable last_time : float;
}

let create ?(config = default_config) constellation =
  let relays =
    match config.cross_shell with
    | Ground_relays -> Relay_sites.generate ()
    | Lasers -> [||]
  in
  let n = Constellation.size constellation in
  { config;
    constellation;
    relays;
    relay_index =
      (if Array.length relays > 0 then Some (Spatial_index.build relays) else None);
    partner_up = Array.make n None;
    partner_down = Array.make n None;
    relay_partner = Array.make n None;
    relay_retry_at = Array.make n Float.neg_infinity;
    last_time = Float.neg_infinity }

let reset t =
  Array.fill t.partner_up 0 (Array.length t.partner_up) None;
  Array.fill t.partner_down 0 (Array.length t.partner_down) None;
  Array.fill t.relay_partner 0 (Array.length t.relay_partner) None;
  Array.fill t.relay_retry_at 0 (Array.length t.relay_retry_at) Float.neg_infinity;
  t.last_time <- Float.neg_infinity

(* Shell-internal grid links.  Intra-orbit links are permanent;
   inter-orbit links require both endpoints below the high-latitude
   threshold. *)
let grid_links t positions add =
  let c = t.constellation in
  let shells = Constellation.shells c in
  Array.iteri
    (fun s (sh : Shell.t) ->
      let planes = sh.Shell.planes and per = sh.Shell.sats_per_plane in
      let id plane slot = Constellation.id_of_coord c { shell = s; plane; slot } in
      let low_latitude i =
        Float.abs (Geo.latitude_deg positions.(i)) <= t.config.high_latitude_deg
      in
      for p = 0 to planes - 1 do
        for k = 0 to per - 1 do
          let a = id p k in
          (* Intra-orbit: next slot on the same ring (skip the wrap
             duplicate when the ring has only two satellites). *)
          if per > 1 && (k < per - 1 || per > 2) then begin
            let b = id p ((k + 1) mod per) in
            add a b Link.Intra_orbit (Geo.distance positions.(a) positions.(b))
          end;
          (* Inter-orbit: same slot on the next plane. *)
          if planes > 1 && (p < planes - 1 || planes > 2) then begin
            let b = id ((p + 1) mod planes) k in
            if low_latitude a && low_latitude b then
              add a b Link.Inter_orbit (Geo.distance positions.(a) positions.(b))
          end
        done
      done)
    shells

(* Shell boundaries as (first_id, size) pairs, in shell order. *)
let shell_ranges c =
  let shells = Constellation.shells c in
  let ranges = Array.make (Array.length shells) (0, 0) in
  let off = ref 0 in
  Array.iteri
    (fun s sh ->
      ranges.(s) <- (!off, Shell.size sh);
      off := !off + Shell.size sh)
    shells;
  ranges

(* Cross-shell laser pairing with hysteresis: keep the current
   partner while in range and in line of sight, otherwise re-pair to
   the nearest satellite of the target shell.  A shell's index is built
   on its first miss: when every partner holds, none is needed. *)
let laser_links t positions add =
  let c = t.constellation in
  let ranges = shell_ranges c in
  let n_shells = Array.length ranges in
  let pair_one index target_base partner i =
    let p = positions.(i) in
    let keep =
      match partner.(i) with
      | Some j when
          Geo.distance p positions.(j) <= laser_max_km
          && Geo.line_of_sight p positions.(j) -> true
      | Some _ | None -> false
    in
    if not keep then
      partner.(i) <-
        (match Spatial_index.nearest (Lazy.force index) p ~max_km:laser_max_km with
        | Some (local, _) when Geo.line_of_sight p positions.(target_base + local) ->
            Some (target_base + local)
        | Some _ | None -> None);
    match partner.(i) with
    | Some j -> add i j Link.Cross_shell_laser (Geo.distance p positions.(j))
    | None -> ()
  in
  for s = 0 to n_shells - 2 do
    let lo_base, lo_size = ranges.(s) in
    let hi_base, hi_size = ranges.(s + 1) in
    let hi_index = lazy (Spatial_index.build (Array.sub positions hi_base hi_size)) in
    let lo_index = lazy (Spatial_index.build (Array.sub positions lo_base lo_size)) in
    for i = lo_base to lo_base + lo_size - 1 do
      pair_one hi_index hi_base t.partner_up i
    done;
    for j = hi_base to hi_base + hi_size - 1 do
      pair_one lo_index lo_base t.partner_down j
    done
  done

(* Bent-pipe pairing: keep the current relay while its elevation stays
   above the threshold, otherwise the nearest visible relay. *)
let relay_links t positions add =
  match t.relay_index with
  | None -> ()
  | Some index ->
      let num_sats = Constellation.size t.constellation in
      (* Slant range at a 25-degree elevation mask stays under
         ~1200 km for LEO altitudes; 1800 km leaves slack for
         Iridium's 781 km shell. *)
      let max_slant_km = 1800.0 in
      (* A satellite with no visible relay (mid-ocean) stays out of
         range for many consecutive snapshots; back off instead of
         re-scanning every 12.5 ms. *)
      let retry_backoff_s = 0.5 in
      let visible relay_idx sat_pos =
        Geo.elevation_angle_deg ~ground:t.relays.(relay_idx) ~sat:sat_pos
        >= relay_min_elevation_deg
      in
      for i = 0 to num_sats - 1 do
        let p = positions.(i) in
        let keep =
          match t.relay_partner.(i) with
          | Some r when visible r p -> true
          | Some _ | None -> false
        in
        if (not keep) && t.relay_retry_at.(i) <= t.last_time then begin
          let candidates = Spatial_index.within index p ~radius_km:max_slant_km in
          let best =
            List.fold_left
              (fun acc (r, d) ->
                if visible r p then
                  match acc with
                  | Some (_, bd) when bd <= d -> acc
                  | Some _ | None -> Some (r, d)
                else acc)
              None candidates
          in
          t.relay_partner.(i) <- Option.map fst best;
          if best = None then t.relay_retry_at.(i) <- t.last_time +. retry_backoff_s
        end
        else if not keep then t.relay_partner.(i) <- None;
        match t.relay_partner.(i) with
        | Some r -> add i (num_sats + r) Link.Relay (Geo.distance p t.relays.(r))
        | None -> ()
      done

let snapshot t ~time_s =
  if time_s < t.last_time then
    invalid_arg "Builder.snapshot: time must be non-decreasing (use reset)";
  t.last_time <- time_s;
  let positions = Constellation.positions t.constellation ~time_s in
  let acc = Hashtbl.create 4096 in
  let add u v kind length_km =
    let key = (min u v, max u v) in
    if not (Hashtbl.mem acc key) then
      Hashtbl.replace acc key
        { Link.u; v; kind; capacity_mbps = link_capacity_mbps; length_km }
  in
  grid_links t positions add;
  (match t.config.cross_shell with
  | Lasers -> laser_links t positions add
  | Ground_relays -> relay_links t positions add);
  let links = Hashtbl.fold (fun _ l acc -> l :: acc) acc [] in
  Snapshot.make ~time_s
    ~num_sats:(Constellation.size t.constellation)
    ~sat_positions:positions ~relay_positions:t.relays ~links
