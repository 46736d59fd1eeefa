(** Multi-shell constellations and satellite indexing.

    Satellites are numbered globally: shell by shell, plane-major
    within a shell.  The grid coordinate [(shell, plane, slot)] of a
    satellite is the key input to the fast path algorithms of
    Appendix C. *)

type coord = { shell : int; plane : int; slot : int }
(** Grid coordinate of a satellite. *)

type t

val make : name:string -> Shell.t list -> t
(** Build a constellation from its shells (at least one). *)

val name : t -> string

val shells : t -> Shell.t array

val size : t -> int
(** Total number of satellites. *)

val coord_of_id : t -> int -> coord
(** Grid coordinate of a global satellite id.  Raises
    [Invalid_argument] when out of range. *)

val id_of_coord : t -> coord -> int
(** Inverse of {!coord_of_id}. *)

val position : t -> time_s:float -> int -> Sate_geo.Geo.vec3
(** ECEF position of one satellite at a given time. *)

val positions : t -> time_s:float -> Sate_geo.Geo.vec3 array
(** Positions of all satellites (indexed by global id). *)

(** {1 Presets used by the paper} *)

val starlink_phase1 : t
(** The four completed Starlink shells (Table 4): 4,236 satellites. *)

val iridium : t
(** Iridium: 66 satellites, 6 planes x 11, 781 km, 86.4 degrees. *)

val mid_size : plane_divisor:int -> t
(** Starlink shells 1-2 with the number of planes divided by
    [plane_divisor]: divisor 8 gives 396 satellites (Mid-Size 1),
    divisor 2 gives 1,584 (Mid-Size 2), matching Section 4. *)

val grid : planes:int -> sats_per_plane:int -> unit -> t
(** Single-shell test constellation of arbitrary size at Starlink
    shell 2's 550 km and 53 degrees, e.g. the 176- and 528-satellite
    scales used for the Teal comparison. *)

val of_scale : int -> t
(** Convenience lookup by the satellite counts quoted in the paper:
    66, 176, 396, 528, 1584, 4236.  Raises [Invalid_argument] for
    other values. *)
