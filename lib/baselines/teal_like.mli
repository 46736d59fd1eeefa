(** Teal-like learning baseline [78].

    Architectural stand-in for Teal: a shared encoder feeding a
    {e fixed-size, position-specific} DNN allocator over {e all}
    ordered satellite pairs.  It reproduces the properties the paper's
    comparisons rest on:

    - the input is the dense [n^2 x (1 + k)] pair grid (demand plus k
      candidate-path features), so it cannot be pruned — input volume
      and inference cost grow with n^2 regardless of traffic sparsity
      (Fig. 8a; [Sate_pruning.Volume] measures the dense and pruned
      sizes);
    - the allocator's weights are tied to the pair/path ordering of
      the topology it was trained on, so a trained model does not
      transfer to unseen topologies (Sec. 2.4);
    - training cost grows quickly with scale (Fig. 9a).

    Following the paper, models are trained on a single static
    topology and only at scales where the dense input fits memory. *)

type t

val create : num_sats:int -> k:int -> unit -> t
(** A fresh model with an 8-wide encoder (scaled to CPU budgets),
    initialised from seed 5. *)

val num_parameters : t -> int

val train : ?epochs:int -> t -> Sate_te.Instance.t list -> unit
(** Supervised training against LP labels on the dense grid: one
    {!Sate_gnn.Trainer.epoch} of {!Sate_gnn.Loss.mse} per epoch, in
    instance order (Adam, learning rate 2e-3). *)

val dense_labels : t -> Sate_te.Instance.t -> Sate_tensor.Tensor.t
(** Training labels: the max-throughput LP's split ratios
    ({!Sate_gnn.Loss.label_ratios_of_alloc}) on the dense [1 x n^2 k]
    grid, in the cells {!ratios} reads; every other cell is 0. *)

val ratios : t -> Sate_te.Instance.t -> float array
(** Per-path split ratios in the instance's path order, for
    {!Sate_te.Allocation.of_ratios}: each path [p < k] reads its
    pair's cell [p] of the dense output, and paths past [k] get 0.
    Raises [Invalid_argument] if the instance's satellite count
    differs from the trained scale. *)
