module Geo = Sate_geo.Geo

type t = {
  name : string;
  altitude_km : float;
  inclination_deg : float;
  planes : int;
  sats_per_plane : int;
}

(* Sidereal-day Earth rotation rate, rad/s. *)
let earth_rotation_rad_s = 7.2921159e-5

let make ?(name = "shell") ~altitude_km ~inclination_deg ~planes
    ~sats_per_plane () =
  if altitude_km <= 0.0 then invalid_arg "Shell.make: altitude must be positive";
  if planes <= 0 || sats_per_plane <= 0 then
    invalid_arg "Shell.make: counts must be positive";
  { name; altitude_km; inclination_deg; planes; sats_per_plane }

let size t = t.planes * t.sats_per_plane

let semi_major_axis_km t = Geo.earth_radius_km +. t.altitude_km

let mean_motion_rad_s t =
  let a = semi_major_axis_km t in
  sqrt (Geo.mu_earth /. (a *. a *. a))

let period_s t = 2.0 *. Float.pi /. mean_motion_rad_s t

let position t ~plane ~slot ~time_s =
  assert (plane >= 0 && plane < t.planes);
  assert (slot >= 0 && slot < t.sats_per_plane);
  let a = semi_major_axis_km t in
  let inc = t.inclination_deg *. Float.pi /. 180.0 in
  let raan = 2.0 *. Float.pi *. float_of_int plane /. float_of_int t.planes in
  (* Walker phasing factor 1: adjacent planes are offset along track by
     one slot spacing divided by the plane count. *)
  let u0 =
    (2.0 *. Float.pi *. float_of_int slot /. float_of_int t.sats_per_plane)
    +. 2.0 *. Float.pi *. float_of_int plane
       /. float_of_int (t.planes * t.sats_per_plane)
  in
  let u = u0 +. (mean_motion_rad_s t *. time_s) in
  let cos_u = cos u and sin_u = sin u in
  let cos_i = cos inc and sin_i = sin inc in
  let cos_o = cos raan and sin_o = sin raan in
  let xi = a *. cos_u and yi = a *. sin_u in
  let x_eci = (cos_o *. xi) -. (sin_o *. cos_i *. yi) in
  let y_eci = (sin_o *. xi) +. (cos_o *. cos_i *. yi) in
  let z_eci = sin_i *. yi in
  let theta = earth_rotation_rad_s *. time_s in
  let cos_t = cos theta and sin_t = sin theta in
  { Geo.x = (cos_t *. x_eci) +. (sin_t *. y_eci);
    y = (-.sin_t *. x_eci) +. (cos_t *. y_eci);
    z = z_eci }
