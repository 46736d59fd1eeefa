(** Traffic allocations and the feasibility / quality metrics of
    Section 4 ("Performance Metrics") and Appendix H.

    An allocation assigns x_fp Mbps of commodity f to its candidate
    path p.  Learned models emit soft allocations that may violate
    constraints; {!trim} is the correction step of §3.3 that projects
    any allocation onto the feasible region before metrics are
    taken. *)

type t = float array array
(** [t.(f).(p)] is the rate of commodity [f] on its path [p]; the
    ragged shape mirrors [Instance.commodities]. *)

val zeros : Instance.t -> t

val of_ratios : Instance.t -> float array -> t
(** The decode of every learned method (§3.3): one split ratio per
    candidate path, in the instance's flat path order (commodity-major,
    the order of [Sate_gnn.Te_graph]'s path nodes), to rates of demand
    x ratio.  No trim.  Raises [Invalid_argument] unless there is one
    ratio per path. *)

val scale_to_demand : Instance.t -> t -> t
(** Clamp negatives and scale each commodity down so its total does
    not exceed its demand (constraint 2.e). *)

val loads : Instance.t -> t -> float array
(** Load per resource, indexed like [Instance.caps]: a link carries
    the positive rates of the paths crossing it (2.b); a node's
    uplink and downlink carry the total rate of every commodity it
    sources or sinks (2.c, 2.d). *)

(** {1 Feasibility invariants}

    Every invariant of (2.b)-(2.f) can be checked individually;
    {!violations} reports exactly which resource is violated and by
    how much, {!is_feasible} is its silent boolean form. *)

type violation =
  | Negative_rate of { commodity : int; path : int; rate : float }
      (** (2.f) a path rate is below zero. *)
  | Demand_exceeded of { commodity : int; total : float; demand : float }
      (** (2.e) a commodity carries more than its demand. *)
  | Link_overload of { link : int; load : float; capacity : float }
      (** (2.b) a link carries more than its capacity. *)
  | Uplink_overload of { node : int; load : float; capacity : float }
      (** (2.c) a node sources more than its uplink capacity. *)
  | Downlink_overload of { node : int; load : float; capacity : float }
      (** (2.d) a node sinks more than its downlink capacity. *)

val violation_to_string : violation -> string

val violations : Instance.t -> t -> violation list
(** Every invariant violation beyond an absolute tolerance of [1e-6]
    Mbps, in deterministic order: commodity checks first, then
    resources in [Instance.caps] order (links, uplinks, downlinks).
    Empty iff the allocation is feasible. *)

val is_feasible : Instance.t -> t -> bool
(** All of (2.b)-(2.f) hold within tolerance ([violations] is
    empty). *)

val trim : Instance.t -> t -> t
(** Correction for constraint violation (§3.3): proportional scaling
    on overloaded resources followed by a sequential exact pass
    against [Instance.caps], so the result always satisfies
    {!is_feasible}. *)

val total_flow : t -> float

val satisfied_ratio : Instance.t -> t -> float
(** Total allocated flow over total demand (the paper's "satisfied
    demand"); 1.0 when there is no demand. *)

val per_commodity_ratio : Instance.t -> t -> float array
(** Flow-level satisfied demand (Fig. 16a). *)

val mlu : Instance.t -> t -> float
(** Maximum link utilisation over links with finite, positive
    capacity in [Instance.caps]; 0 for an empty allocation. *)

val scale_to_full_demand : Instance.t -> t -> t
(** Rescale each commodity so its paths carry exactly its demand
    (commodities with zero predicted mass split demand equally over
    their paths).  Used to compare MLU across methods: utilisation is
    only meaningful between allocations carrying the same traffic, and
    may exceed 1. *)
