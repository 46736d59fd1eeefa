(** Distributed satellite routing baseline [56] (backpressure-style).

    Backpressure routing forwards traffic hop by hop from local queue
    gradients without a global view.  As a centralised-evaluation
    stand-in we emulate its defining weakness (the paper's reason it
    "performs the worst under heavy load": no holistic coordination):
    every commodity greedily sends its full demand down its best
    candidate path given only {e local} residual estimates, without
    coordinating with other commodities; the overload that a real
    backpressure network would express as queue growth and drops is
    realised by the feasibility trim.  Computation is distributed
    across routers, so the paper (and this harness) excludes it from
    latency comparisons.  The deflection noise is drawn from a fixed
    seed (23), so repeated solves agree. *)

val solve : Sate_te.Instance.t -> Sate_te.Allocation.t
