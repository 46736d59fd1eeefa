(** Grid index over ECEF positions for nearest-neighbour queries.

    Cross-shell laser pairing, ground-relay visibility and flow
    attachment need, for many query points, the nearest point of
    another set.  Brute force is O(n^2) per snapshot; this index makes
    full Starlink snapshot generation tractable on a laptop.

    The grid has 500 km cubic cells over the bounding box of the
    indexed points, stored flat: one array of cell starts and one of
    ids sorted by cell, descending within a cell.  A query walks the
    Chebyshev rings of cells around the query's cell, nearest ring
    first, and stops before the first ring whose lower bound
    [(r - 1) * 500 km] exceeds the search bound: [max_km], or the best
    distance found so far if smaller.  Within a ring it skips every
    cell whose box is farther than that bound (plus 1e-6 km against
    rounding): such a cell holds no point that could win or be in
    range.

    Ties: [nearest] returns the first strictly nearest point in ring,
    then cell ((dx, dy, dz) lexicographic), then descending-id order.
    Building costs one array entry per cell of the box; a query
    allocates a few words besides its result, however many cells it
    visits. *)

type t

val build : Sate_geo.Geo.vec3 array -> t
(** Index the given positions (indices into the array are the ids
    returned by queries). *)

val nearest :
  t -> Sate_geo.Geo.vec3 -> max_km:float -> (int * float) option
(** [nearest t p ~max_km] returns the id and distance of the indexed
    position closest to [p], provided it is within [max_km]
    (inclusive); [None] for an empty index. *)

val within : t -> Sate_geo.Geo.vec3 -> radius_km:float -> (int * float) list
(** All indexed positions within [radius_km] of [p] (inclusive), with
    their distances, in the reverse of the search order above. *)
