(** Offline (delay-free) evaluation: allocation quality only
    (Appendix H.1, H.2). *)

val satisfied : Method.t -> Sate_te.Instance.t list -> float
(** Mean satisfied-demand ratio across instances, computing each
    allocation instantaneously. *)

val mlu : Method.t -> Sate_te.Instance.t list -> float
(** Mean maximum link utilisation with {e all} demand routed (each
    method's split is rescaled to carry every commodity's full demand,
    matching the MLU LP's equality constraints; utilisation may exceed
    1).  For the LP method the exact MLU optimum is solved. *)
