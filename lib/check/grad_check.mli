(** Finite-difference verification of {!Sate_nn.Autodiff} backward
    passes.

    Every op's analytic gradient is compared coordinate-by-coordinate
    against central differences [(f(x+h) - f(x-h)) / 2h] of the same
    forward computation.  This is the regression oracle for any future
    change to the autodiff tape, a tensor kernel, or the GAT layer: a
    wrong adjoint shows up as a relative error orders of magnitude
    above {!default_tol}.

    All randomness is drawn from {!Sate_util.Rng} with explicit seeds,
    so a failing check is exactly reproducible. *)

open Sate_tensor
module A = Sate_nn.Autodiff

type result = {
  name : string;
  max_rel_err : float;  (** Worst relative error over all coordinates. *)
  worst_index : int;  (** Flat index of the worst coordinate (-1 if none). *)
  checked : int;  (** Number of coordinates compared. *)
  passed : bool;  (** [max_rel_err <= tol]. *)
}

val default_tol : float
(** 1e-4: central differences with [eps = 1e-5] put truncation and
    round-off error well below this for every smooth op. *)

val result_to_string : result -> string

val failures : result list -> result list
(** The subset that did not pass. *)

val check : name:string -> build:(A.t -> A.t) -> Tensor.t -> result
(** [check ~build x0] makes a fresh leaf from [x0] and verifies the
    gradient of the scalar [build leaf] with respect to it, with step
    [eps = 1e-5] and tolerance {!default_tol}.  The
    leaf's value is perturbed in place and restored, so [build] must
    rebuild the graph from the leaf on every call. *)

val all_ops : ?seed:int -> unit -> result list
(** One check per op exported by {!Sate_nn.Autodiff} (both operands
    where an op has two or three differentiable inputs).  Inputs for
    ops with kinks (relu, leaky_relu, clamp_max, edge_scores) are
    sampled away from the kink so the finite difference is valid. *)

val gat_layer : ?attention:bool -> unit -> result list
(** End-to-end checks of the {!Sate_gnn.Gat} block (inputs drawn from
    seed 11): gradient of [sum (forward ^ 2)] with respect to the
    source/destination inputs and every parameter of every head.  The
    tolerance is looser (1e-3) because the composite passes through
    several LeakyReLU kinks. *)
