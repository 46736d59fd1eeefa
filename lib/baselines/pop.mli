(** POP: Partitioned Optimisation Problems [55].

    Randomly partitions the commodities into [k] sub-problems, each
    seeing [1/k] of every link/node capacity, solves each sub-problem
    exactly with the LP solver, and combines the sub-allocations.  The
    sub-problems are independent, so a deployment runs them on [k]
    solvers in parallel — {!solve_timed} therefore reports the
    wall-clock of the slowest sub-problem as POP's latency, as the
    paper does.  The partition is drawn from a fixed seed (11), so
    repeated solves agree. *)

val solve : ?k:int -> Sate_te.Instance.t -> Sate_te.Allocation.t
(** Default [k] = 4 partitions. *)

val solve_timed : ?k:int -> Sate_te.Instance.t -> Sate_te.Allocation.t * float
(** Also return the simulated-parallel latency in milliseconds. *)
