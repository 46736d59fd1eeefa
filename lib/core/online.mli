(** Online satisfied-demand evaluation (Sec. 5.4).

    The TE workflow is periodic: a method starts computing on the
    inputs at some instant, and until the result lands the {e previous}
    allocation stays in effect — stale paths break as the topology
    moves, and new flows find no allocation.  Methods with second-scale
    latency therefore serve minutes-old decisions, which is exactly
    the effect SaTE's 17 ms latency removes.

    Every tick (1 s): the in-effect allocation is carried over onto
    the current instance — rates follow their original paths where
    those paths still exist and are valid, everything else is dropped
    — then trimmed against current capacities and demands, and the
    satisfied-demand ratio is recorded. *)

type report = {
  method_name : string;
  mean_satisfied : float;  (** Mean per-tick satisfied demand. *)
  per_tick : (float * float) list;  (** (time_s, satisfied ratio). *)
  recomputations : int;  (** TE rounds started during the run. *)
  violations : int;
      (** Feasibility violations ({!Sate_te.Allocation.violations}) of
          every method result and every carried-over per-tick
          allocation, each also printed to stderr.  A healthy
          method/harness pair reports zero. *)
}

val carryover :
  Sate_te.Instance.t ->
  Sate_te.Allocation.t ->
  Sate_te.Instance.t ->
  Sate_te.Allocation.t
(** Map an allocation computed for an old instance onto a new one:
    rates keep flowing on identical paths of matching commodities,
    then the result is trimmed to current feasibility. *)

val evaluate :
  ?tick_s:float ->
  ?latency_override_ms:float ->
  duration_s:float ->
  Scenario.t ->
  Method.t ->
  report
(** Run the online loop for [duration_s] simulated seconds.

    The run is on a simulated clock that never reads the wall clock:
    a computation started at [t] lands at [t + latency], where the
    latency is [latency_override_ms] (default 0 ms; use it to replay
    the paper's Starlink cadences, {!Method.starlink_latency_ms}).
    The allocation computed on the t = 0 inputs is in effect from the
    start.  After that the method recomputes at most once per tick:
    only at a tick, and only once its previous round has landed; the
    landed result goes into effect at that tick.  With the default
    0 ms it recomputes at every tick. *)
