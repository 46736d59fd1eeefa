(** One orbital shell of a Walker-delta constellation.

    A shell is a set of circular orbits sharing altitude and
    inclination: [planes] orbital planes spread evenly in RAAN, each
    carrying [sats_per_plane] equally spaced satellites, with Walker
    phasing factor 1 (the along-track offset between adjacent planes
    is [2 pi / (planes * sats_per_plane)]).  This matches
    the FCC filing structure the paper replicates (Table 4). *)

type t = {
  name : string;  (** Human-readable label, e.g. ["starlink-shell-1"]. *)
  altitude_km : float;  (** Height above the Earth surface. *)
  inclination_deg : float;  (** Orbital inclination. *)
  planes : int;  (** Number of orbital planes. *)
  sats_per_plane : int;  (** Satellites per plane. *)
}

val make :
  ?name:string ->
  altitude_km:float ->
  inclination_deg:float ->
  planes:int ->
  sats_per_plane:int ->
  unit ->
  t
(** Smart constructor; validates positive counts and altitude. *)

val size : t -> int
(** Number of satellites in the shell. *)

val semi_major_axis_km : t -> float
(** Orbit radius from the Earth's centre. *)

val period_s : t -> float
(** Orbital period in seconds. *)

val position :
  t -> plane:int -> slot:int -> time_s:float -> Sate_geo.Geo.vec3
(** ECEF position of the satellite at [plane, slot] at simulation time
    [time_s] seconds.  Accounts for Earth rotation so ground-relative
    geometry (elevation angles) is correct. *)
