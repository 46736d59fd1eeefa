(** Poisson flow-arrival traffic generator (Section 4, Appendix G).

    New flows arrive as a Poisson process of intensity [lambda] flows
    per second.  Each flow is a service class (Table 2), a duration,
    and two endpoints: user-to-user, or gateway-to-user for Internet
    access.  Endpoint locations are drawn from the population raster
    (Eq. 8), so the traffic intensity between grid cells alpha, beta
    is lambda * p_alpha * p_beta as in the paper.

    Calling {!advance} moves simulated time forward, adding arrivals
    and expiring finished flows; {!demand_at} aggregates the active
    flows into a sparse traffic matrix against a topology snapshot by
    attaching every endpoint to its nearest satellite. *)

type config = {
  seed : int;
  gateway_flow_fraction : float;
      (** Probability that a new flow is gateway-to-user. *)
}

val default_config : config
(** Seed 7; 40% of new flows are gateway-to-user.

    Fixed: 1,000 gateways and 50 Mbps per user connection for both
    uplink and downlink (Section 4, capacities scaled as in its note
    5), and the population smoothing gamma of Eq. 8 (Appendix G) at
    2 for users and gateways alike. *)

type flow = {
  id : int;
  cls : Flow_class.t;
  demand_mbps : float;
  src : Sate_geo.Geo.vec3;
      (** Source on the ground (altitude 0) in ECEF km, projected once
          when the flow is drawn. *)
  dst : Sate_geo.Geo.vec3;  (** Destination, likewise. *)
  start_s : float;
  end_s : float;
  via_gateway : bool;
}

type t

val create : ?config:config -> lambda:float -> unit -> t
(** Fresh generator with no active flows at time 0. *)

val lambda : t -> float

val set_lambda : t -> float -> unit
(** Change the arrival intensity (traffic-load sweeps). *)

val advance : t -> to_s:float -> unit
(** Simulate arrivals and departures up to [to_s] (non-decreasing). *)

val active_flows : t -> flow list

val active_count : t -> int

val demand_at :
  t -> Sate_topology.Snapshot.t -> Demand.t * float array * float array
(** Aggregate active flows into a sparse demand matrix by attaching
    endpoints to nearest satellites, plus per-satellite uplink and
    downlink capacities (per-connection capacity times the number of
    attached connections).  Flow demands are clamped to the
    per-connection access capacity. *)
