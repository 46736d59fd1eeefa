(** Trainable layers: linear maps and multi-layer perceptrons. *)

type linear = { w : Autodiff.t; b : Autodiff.t }
(** Affine map [x -> x W + b] with [W : in x out], [b : 1 x out]. *)

val linear : Sate_util.Rng.t -> in_dim:int -> out_dim:int -> linear
(** Glorot-initialised weights, zero bias. *)

val forward_linear : linear -> Autodiff.t -> Autodiff.t

val linear_params : linear -> Autodiff.t list

type mlp
(** Stack of linear layers with LeakyReLU between (none after the
    last layer — the decoder's output is squashed by the caller). *)

val mlp : Sate_util.Rng.t -> dims:int list -> mlp
(** [dims] = [[in; hidden...; out]]; needs at least two entries. *)

val forward_mlp : mlp -> Autodiff.t -> Autodiff.t

val mlp_params : mlp -> Autodiff.t list

val num_parameters : Autodiff.t list -> int

val dump_params : Autodiff.t list -> float array
(** Flatten parameter values (save). *)

val load_params : Autodiff.t list -> float array -> unit
(** Restore values produced by {!dump_params} into parameters of the
    same shapes (in-place). *)
