(** Adam optimizer (Kingma & Ba) with gradient clipping. *)

type t

val adam : ?lr:float -> Autodiff.t list -> t
(** Track the given parameters.  Learning rate [lr] (default 1e-3);
    beta1 0.9, beta2 0.999, eps 1e-8 and global-norm gradient
    clipping at 5.0. *)

val step : t -> unit
(** Apply one update from the accumulated gradients, then zero them. *)
