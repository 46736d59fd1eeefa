(** Tableau simplex linear-programming solver over sparse constraint
    rows.

    This is the repository's stand-in for the commercial solver the
    paper uses for ground-truth TE labels and as the "Gurobi"
    baseline.  It solves

    {v max/min  c . x   subject to   A x (<=|=|>=) b,  x >= 0 v}

    with the Big-M method for equality/>= rows and Bland's rule as an
    anti-cycling fallback.  The tableau is dense but holds only the
    non-basic columns (rows x (cols - rows + 1) floats) and a pivot
    updates only the columns where the pivot row is non-zero.  The
    pivots and the solution are bit for bit those of the full
    tableau.  This is adequate at the problem sizes
    used for label generation; production WAN solvers are faster,
    which only widens the latency gap the paper reports in SaTE's
    favour. *)

type sense = Le | Ge | Eq

type constr = { terms : (int * float) array; sense : sense; rhs : float }
(** One row [sum (j, a) in terms. a x_j  sense  rhs].  [terms] lists
    the row's non-zero coefficients as [(variable, coefficient)] pairs
    with variable indices strictly increasing, each in [[0, n)] for
    [n = Array.length c]; a variable absent from [terms] has
    coefficient 0.  A builder that meets the same variable twice in a
    row adds the coefficients into one term. *)

type outcome =
  | Optimal of { objective : float; solution : float array }
  | Infeasible
  | Unbounded
  | Iteration_limit

val solve :
  ?maximize:bool ->
  ?max_iters:int ->
  c:float array ->
  constraints:constr list ->
  unit ->
  outcome
(** [solve ~c ~constraints ()] optimizes [c . x] (maximization by
    default) over non-negative [x].  The tableau is filled from each
    row's terms; no row is copied.  Raises [Invalid_argument] if a
    term's index is outside [[0, n)] or not above the previous one.
    Pivots use a fixed tolerance of [1e-9]; [max_iters] defaults to
    [50 * (rows + cols)], and Bland's rule takes over after half of
    it. *)
