(** Synthetic global population-density raster.

    The paper drives user/gateway placement from the GPW v4 gridded
    population of the world (360 x 180 one-degree cells) with a
    smoothing factor for remote areas (Appendix G, Eq. 8).  GPW data
    is not available offline, so this module synthesizes a raster with
    the properties the evaluation depends on: density concentrated on
    continent-shaped land masses with heavy-tailed urban hot spots and
    empty oceans, which is what makes satellite traffic matrices
    sparse (the lever behind SaTE's traffic pruning). *)

type t

val grid_cols : int
(** 360 longitude cells of one degree. *)

val grid_rows : int
(** 180 latitude cells of one degree. *)

val synthetic : seed:int -> t
(** Build the synthetic raster.  Deterministic in [seed]. *)

val density : t -> lat_deg:float -> lon_deg:float -> float
(** Raw density at a point (arbitrary units, >= 0). *)

val is_land : t -> lat_deg:float -> lon_deg:float -> bool
(** Whether the cell is part of a synthetic land mass. *)

val cell_probabilities : t -> smoothing:float -> float array
(** Per-cell sampling probabilities p_alpha = (density + gamma) /
    sum(density + gamma) (Eq. 8), row-major with index
    [row * grid_cols + col], row 0 at latitude -90. *)

type sampler
(** Precomputed cumulative distribution for O(log n) location draws;
    build once, sample millions of times. *)

val make_sampler : t -> smoothing:float -> land_only:bool -> sampler
(** [make_sampler t ~smoothing ~land_only] builds a sampler over
    {!cell_probabilities}; with [land_only] ocean cells get zero
    probability (ground relays and gateways sit on land). *)

val sample : sampler -> Sate_util.Rng.t -> float * float
(** Draw a (lat_deg, lon_deg) location, uniform within the chosen
    cell. *)

val cell_of : lat_deg:float -> lon_deg:float -> int
(** Row-major cell index of a coordinate. *)
