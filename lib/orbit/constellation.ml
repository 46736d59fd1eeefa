module Geo = Sate_geo.Geo

type coord = { shell : int; plane : int; slot : int }

type t = {
  name : string;
  shells : Shell.t array;
  offsets : int array; (* offsets.(s) = first global id of shell s *)
  total : int;
}

let make ~name shells =
  if shells = [] then invalid_arg "Constellation.make: no shells";
  let shells = Array.of_list shells in
  let n = Array.length shells in
  let offsets = Array.make n 0 in
  let total = ref 0 in
  for s = 0 to n - 1 do
    offsets.(s) <- !total;
    total := !total + Shell.size shells.(s)
  done;
  { name; shells; offsets; total = !total }

let name t = t.name

let shells t = t.shells

let size t = t.total

let coord_of_id t id =
  if id < 0 || id >= t.total then invalid_arg "Constellation.coord_of_id";
  let rec find s =
    if s + 1 < Array.length t.offsets && t.offsets.(s + 1) <= id then find (s + 1)
    else s
  in
  let s = find 0 in
  let local = id - t.offsets.(s) in
  let per = t.shells.(s).Shell.sats_per_plane in
  { shell = s; plane = local / per; slot = local mod per }

let id_of_coord t { shell; plane; slot } =
  if shell < 0 || shell >= Array.length t.shells then
    invalid_arg "Constellation.id_of_coord: bad shell";
  let sh = t.shells.(shell) in
  if plane < 0 || plane >= sh.Shell.planes || slot < 0 || slot >= sh.Shell.sats_per_plane
  then invalid_arg "Constellation.id_of_coord: bad plane/slot";
  t.offsets.(shell) + (plane * sh.Shell.sats_per_plane) + slot

let position t ~time_s id =
  let { shell; plane; slot } = coord_of_id t id in
  Shell.position t.shells.(shell) ~plane ~slot ~time_s

let positions t ~time_s =
  Array.init t.total (fun id -> position t ~time_s id)

let starlink_phase1 =
  make ~name:"starlink-phase1"
    [ Shell.make ~name:"shell-1" ~altitude_km:540.0 ~inclination_deg:53.2
        ~planes:72 ~sats_per_plane:22 ();
      Shell.make ~name:"shell-2" ~altitude_km:550.0 ~inclination_deg:53.0
        ~planes:72 ~sats_per_plane:22 ();
      Shell.make ~name:"shell-3" ~altitude_km:560.0 ~inclination_deg:97.6
        ~planes:6 ~sats_per_plane:58 ();
      Shell.make ~name:"shell-4" ~altitude_km:570.0 ~inclination_deg:70.0
        ~planes:36 ~sats_per_plane:20 () ]

let iridium =
  make ~name:"iridium"
    [ Shell.make ~name:"iridium" ~altitude_km:781.0 ~inclination_deg:86.4
        ~planes:6 ~sats_per_plane:11 () ]

let mid_size ~plane_divisor =
  if plane_divisor <= 0 || 72 mod plane_divisor <> 0 then
    invalid_arg "Constellation.mid_size: divisor must divide 72";
  let planes = 72 / plane_divisor in
  make ~name:(Printf.sprintf "starlink-mid-%d" plane_divisor)
    [ Shell.make ~name:"shell-1" ~altitude_km:540.0 ~inclination_deg:53.2
        ~planes ~sats_per_plane:22 ();
      Shell.make ~name:"shell-2" ~altitude_km:550.0 ~inclination_deg:53.0
        ~planes ~sats_per_plane:22 () ]

let grid ~planes ~sats_per_plane () =
  make ~name:(Printf.sprintf "grid-%dx%d" planes sats_per_plane)
    [ Shell.make ~name:"grid" ~altitude_km:550.0 ~inclination_deg:53.0 ~planes
        ~sats_per_plane () ]

let of_scale = function
  | 66 -> iridium
  | 176 -> grid ~planes:8 ~sats_per_plane:22 ()
  | 396 -> mid_size ~plane_divisor:8
  | 528 -> grid ~planes:24 ~sats_per_plane:22 ()
  | 1584 -> mid_size ~plane_divisor:2
  | 4236 -> starlink_phase1
  | n -> invalid_arg (Printf.sprintf "Constellation.of_scale: unknown scale %d" n)
