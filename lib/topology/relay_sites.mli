(** Ground-relay site placement.

    The paper uses 222 real-world relay locations from satellitemap
    [49]; offline we place the same number of sites on land, biased by
    the synthetic population raster (relays cluster where operators
    deploy them: populated land). *)

val generate :
  ?count:int -> ?smoothing:float -> seed:int -> unit -> Sate_geo.Geo.vec3 array
(** [generate ~seed ()] returns relay ECEF positions at the Earth
    surface.  Default [count] is 222 per the paper, [smoothing] 5.0 so
    remote land also hosts the occasional relay. *)
