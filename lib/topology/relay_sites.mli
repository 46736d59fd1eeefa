(** Ground-relay site placement.

    The paper uses 222 real-world relay locations from satellitemap
    [49] (Section 4); offline we place the same number of sites on
    land, biased by the synthetic population raster (relays cluster
    where operators deploy them: populated land). *)

val generate : unit -> Sate_geo.Geo.vec3 array
(** The 222 relay ECEF positions at the Earth surface.  The layout is
    fixed (raster and sampler seeded with 42); population smoothing
    5.0 lets remote land also host the occasional relay. *)
