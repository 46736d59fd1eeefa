(** A concrete TE problem instance (Appendix A).

    One instance freezes the three TE inputs of Fig. 3: the topology
    snapshot, the traffic matrix (as commodities = non-zero demand
    entries, i.e. already traffic-pruned per §3.4), and the
    preconfigured candidate paths per commodity.  One capacity table
    holds every resource of the path LP: links (2.b), uplinks (2.c)
    and downlinks (2.d). *)

type commodity = {
  src : int;
  dst : int;
  demand_mbps : float;
  paths : Sate_paths.Path.t array;  (** Candidate paths P_f. *)
  path_links : int array array;
      (** [path_links.(p)] = indices into [snapshot.links] of path p's
          hops (the Phi_pe incidence). *)
}

type t = {
  snapshot : Sate_topology.Snapshot.t;
  commodities : commodity array;
  caps : float array;
      (** Capacity per resource, with [L] snapshot links and [N]
          nodes: link [li] at [li] (2.b), node [n]'s uplink at
          [L + n] (2.c) and its downlink at [L + N + n] (2.d).  The
          only capacity that TE code reads; relays' node caps are
          infinite. *)
}

val make :
  ?up_caps:float array ->
  ?down_caps:float array ->
  Sate_topology.Snapshot.t ->
  Sate_traffic.Demand.t ->
  Sate_paths.Path_db.t ->
  t
(** Build an instance: one commodity per demand entry, with its
    candidate paths and link indices as the store holds them; raises
    [Invalid_argument] unless the store lives on this very snapshot.
    [caps] takes link capacities from the snapshot and node [n]'s
    from [up_caps.(n)] / [down_caps.(n)]; nodes past either array's
    end (relays) or absent arrays get unbounded caps. *)

val of_demand :
  ?up_caps:float array ->
  ?down_caps:float array ->
  Sate_orbit.Constellation.t ->
  Sate_topology.Snapshot.t ->
  Sate_traffic.Demand.t ->
  k:int ->
  t
(** [make] over a fresh {!Sate_paths.Path_db.compute} of the demand's
    pairs with [k] candidate paths each: the demand -> paths ->
    instance pipeline of Fig. 3. *)

val node_caps : t -> float array * float array
(** [(up_caps, down_caps)] per node, read from [caps]: what [make]
    takes to rebuild the instance on a degraded snapshot. *)

val demand : t -> Sate_traffic.Demand.t
(** The instance's traffic matrix, recovered from its commodities
    (e.g. to rebuild the instance on a degraded snapshot). *)

val num_commodities : t -> int

val num_paths : t -> int
(** Total candidate paths across commodities (the LP variable count). *)

val total_demand : t -> float

val routable_demand : t -> float
(** Demand of commodities that have at least one candidate path — the
    best any path-based method can possibly satisfy. *)
