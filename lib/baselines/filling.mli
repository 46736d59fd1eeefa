(** Progressive filling (water filling) over candidate paths.

    The shared engine behind {!Ecmp_wf} ({!min_hop_paths}) and
    max-min fair filling ([Sate_core.Method.Max_min], {!all_paths}):
    all active commodities raise their rate at the same speed,
    splitting each increment equally over their active paths, until a
    resource saturates or the demand is met.  Freezing the finished
    ones and repeating yields the classic max-min-fair fixed point over
    the chosen path sets. *)

val solve :
  path_choice:(Sate_te.Instance.commodity -> int list) ->
  Sate_te.Instance.t ->
  Sate_te.Allocation.t
(** [solve ~path_choice inst] runs progressive filling where each
    commodity uses the candidate-path indices chosen by
    [path_choice].  The result is always feasible. *)

val min_hop_paths : Sate_te.Instance.commodity -> int list
(** Indices of the minimum-hop candidates (ECMP's equal-cost set). *)

val all_paths : Sate_te.Instance.commodity -> int list
(** All candidate-path indices (max-min filling over every path). *)
