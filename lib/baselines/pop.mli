(** POP: Partitioned Optimisation Problems [55].

    Randomly partitions the commodities into [k] sub-problems, each
    seeing [1/k] of every link/node capacity, solves each sub-problem
    exactly with the LP solver, and combines the sub-allocations.  The
    sub-problems are independent, so a deployment runs them on [k]
    solvers in parallel and POP's latency is that of the slowest
    sub-problem, as the paper reports it; a caller measures it by
    timing the LP solve of each of {!subproblems}.  The partition is
    drawn from a fixed seed (11), so repeated solves agree. *)

val subproblems : ?k:int -> Sate_te.Instance.t -> (Sate_te.Instance.t * int array) list
(** The non-empty sub-instances of [k] partitions (default 4, at most
    one per commodity), each with every capacity scaled by [1/k] and
    paired with the indices, in ascending order, of the commodities it
    holds. *)

val solve : ?k:int -> Sate_te.Instance.t -> Sate_te.Allocation.t
(** {!Sate_te.Lp_solver.solve} over each of {!subproblems}, merged
    into one allocation of the whole instance. *)
