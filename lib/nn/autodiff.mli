(** Reverse-mode automatic differentiation over {!Sate_tensor.Tensor}.

    A computation builds a DAG of value nodes; {!backward} runs the
    chain rule from a scalar loss back to every reachable leaf.  The
    operation set is exactly what attention message passing and the
    SaTE loss (Appendix B) require — including row gather/scatter and
    per-segment softmax with their adjoints. *)

open Sate_tensor

type t = {
  id : int;
  value : Tensor.t;
  mutable grad : Tensor.t;
      (** A {!leaf}'s [grad] is a zero tensor of its shape from
          creation on.  Every other node's [grad] is an empty [0 x 0]
          placeholder until {!backward} first accumulates into it
          (zeros, then the addend), so a forward pass that is never
          differentiated allocates no gradients. *)
  mutable back : unit -> unit;
  parents : t list;
}

val leaf : Tensor.t -> t
(** Parameter or input node (no parents), with a zeroed [grad]. *)

val const : Tensor.t -> t
(** Like {!leaf}, but its gradient buffer is allocated only if
    {!backward} reaches it; constants never get optimizer updates. *)

val shape : t -> int * int

(** {1 Arithmetic} *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val scale : float -> t -> t
val matmul : t -> t -> t
val square : t -> t

(** {1 Nonlinearities} *)

val leaky_relu : t -> t
(** Negative slope 0.2 (GAT convention). *)

val relu : t -> t
val sigmoid : t -> t
val exp : t -> t

val clamp_max : float -> t -> t
(** Pass-through below the bound, constant above (zero gradient). *)

(** {1 Structure} *)

val gather_rows : t -> int array -> t
val scatter_add_rows : t -> int array -> rows:int -> t
val concat_cols : t list -> t
val add_rowvec : t -> t -> t
val col_mul : t -> t -> t
val row_sums : t -> t

(** {1 GAT edge kernels}

    Fused nodes for the per-edge part of a GAT head.  Values are
    {!Sate_tensor.Tensor.edge_scores} and
    {!Sate_tensor.Tensor.edge_aggregate}.  [backward] leaves every
    input's gradient bit-identical to that of the op chain each
    replaces (and so every gradient downstream of it), without
    materialising the chain's intermediates: its loops compute the
    same floats in the same operand order, including the [0.0 +. g]
    with which an intermediate's gradient buffer starts. *)

val edge_scores : t -> dst:int array -> t -> src:int array -> t -> t
(** [edge_scores pd ~dst ps ~src pe]: gradients as for
    [leaky_relu (add (add (gather_rows pd dst) (gather_rows ps src))
    pe)]. *)

val edge_aggregate : t -> src:int array -> t -> t -> dst:int array -> rows:int -> t
(** [edge_aggregate hs ~src he alpha ~dst ~rows]: gradients as for
    [scatter_add_rows (col_mul (add (gather_rows hs src) he) alpha)
    dst ~rows]. *)

(** {1 Reductions} *)

val sum : t -> t
(** [1 x 1] total. *)

val mean : t -> t

(** {1 Attention} *)

val segment_softmax : t -> int array -> t
(** Softmax over groups of equal segment id ([m x 1] scores).
    Raises [Invalid_argument] on a negative segment id. *)

(** {1 Scalar helpers} *)

val scalar : float -> t
(** [1 x 1] constant. *)

val scalar_value : t -> float
(** Value of a [1 x 1] node. *)

(** {1 Backward pass} *)

val backward : t -> unit
(** Seed the gradient of the (scalar) root with 1 and propagate.
    Gradients accumulate into [grad]; callers must zero parameter
    gradients between steps (the optimizer does). *)
