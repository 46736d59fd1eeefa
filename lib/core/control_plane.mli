(** Control-plane propagation analysis (Appendix D, Fig. 13).

    Traffic rules travel from the control centre to every satellite:
    directly to satellites in view of the centre, and over ISL hops
    for the rest.  The per-satellite delay is the speed-of-light time
    along the shortest (delay-weighted) route. *)

val rule_distribution_delays_ms : Sate_topology.Snapshot.t -> float array
(** One-way delay from a control centre in Houston (the paper's
    example) to every satellite (ms); [infinity] for satellites
    unreachable from the centre in this snapshot.  Satellites at
    least 25 degrees above the centre's horizon receive rules
    directly. *)
