(** Dense row-major 2D float tensors.

    The minimal kernel set needed by the GNN framework: elementwise
    arithmetic, matrix multiplication, row gather/scatter (message
    passing), segment sum, and segment softmax (attention
    normalisation).  This is the repository's stand-in for the GPU
    tensor engine.  The heavy kernels ({!matmul}, {!segment_sum},
    {!scatter_add_rows}, {!edge_aggregate}, {!segment_softmax})
    partition their work across the {!Sate_par.Par} domain pool above
    a size threshold; partitioning is by disjoint output rows/segments
    evaluated in the sequential order, so results are bit-identical to
    single-threaded execution for any pool size.

    Every kernel except {!map}, {!map2}, {!init} and {!xavier}
    computes its floats in plain loops, never through a closure that
    returns a float: without flambda such a closure boxes every float
    it returns (DESIGN.md §9). *)

type t = { rows : int; cols : int; data : float array }

val create : int -> int -> t
(** Zero-filled [rows x cols] tensor. *)

val full : int -> int -> float -> t

val init : int -> int -> (int -> int -> float) -> t

val of_array : rows:int -> cols:int -> float array -> t
(** Copy a row-major array into a fresh tensor; length must match.
    The source array is not aliased, so mutating it afterwards cannot
    corrupt the tensor (consistent with {!of_column}). *)

val of_column : float array -> t
(** [n x 1] tensor copying the given values. *)

val copy : t -> t

val get : t -> int -> int -> float

val set : t -> int -> int -> float -> unit

val same_shape : t -> t -> bool

val map : (float -> float) -> t -> t

val map2 : (float -> float -> float) -> t -> t -> t
(** Raises [Invalid_argument] on shape mismatch. *)

val add : t -> t -> t
(** Raises [Invalid_argument "Tensor.add: shape mismatch"] on a shape
    mismatch; likewise {!sub} and {!mul}. *)

val sub : t -> t -> t

val mul : t -> t -> t
(** Elementwise (Hadamard) product. *)

val scale : float -> t -> t

val leaky_relu : alpha:float -> t -> t
(** [v] where [v > 0], [alpha *. v] elsewhere (NaN included). *)

val sigmoid : t -> t
(** [1 / (1 + exp (-v))] elementwise. *)

val matmul : t -> t -> t
(** [matmul a b] is the [a.rows x b.cols] product; [a.cols] must equal
    [b.rows], else [Invalid_argument].  Element [(i, j)] starts at
    [+0.0] and adds [a(i,k) *. b(k,j)] in ascending [k], skipping
    every [k] where [a(i,k) = 0.0] (so [0 * inf] and [0 * nan] never
    enter).  The result is bit-identical to that plain loop, and so
    for any pool size. *)

val transpose : t -> t

val add_rowvec : t -> t -> t
(** [add_rowvec m v] adds the [1 x cols] vector [v] to every row. *)

val col_mul : t -> t -> t
(** [col_mul m v] scales row [i] of [m] by [v.(i, 0)] ([rows x 1]). *)

val gather_rows : t -> int array -> t
(** [gather_rows m idx] stacks rows [m.(idx.(0)); m.(idx.(1)); ...].
    Raises [Invalid_argument] on an index outside [\[0, m.rows)]. *)

val scatter_add_rows : t -> int array -> rows:int -> t
(** [scatter_add_rows m idx ~rows] accumulates row [i] of [m] into row
    [idx.(i)] of a zero [rows x m.cols] tensor.  Raises
    [Invalid_argument] on a length mismatch or an index outside
    [\[0, rows)]. *)

val edge_scores : t -> dst:int array -> t -> src:int array -> t -> t
(** [edge_scores pd ~dst ps ~src pe] is the [E x 1] tensor of GAT
    attention scores (Eq. 7): row [e] is
    [leaky_relu ((pd.(dst.(e)) +. ps.(src.(e))) +. pe.(e))] with
    negative slope [0.2], where [pd], [ps] and [pe] are [n x 1] and
    [E = pe.rows].  Bit-identical to
    [leaky_relu ~alpha:0.2 (add (add (gather_rows pd dst)
    (gather_rows ps src)) pe)], without the three [E x 1]
    intermediates.  Raises [Invalid_argument] (naming
    [Tensor.edge_scores]) on an operand with more than one column, a
    [dst]/[src] length other than [E], or an index outside the rows of
    [pd]/[ps]. *)

val edge_aggregate :
  t -> src:int array -> t -> t -> dst:int array -> rows:int -> t
(** [edge_aggregate hs ~src he alpha ~dst ~rows] is the GAT message
    sum (Eq. 6): a zero [rows x he.cols] tensor to which each edge [e],
    in increasing [e] order, adds [(hs.(src.(e)) +. he.(e)) *. alpha.(e)]
    in row [dst.(e)].  [he] is [E x d], [hs] has [d] columns and
    [alpha] is [E x 1].  Bit-identical to
    [scatter_add_rows (col_mul (add (gather_rows hs src) he) alpha)
    dst ~rows], without its [E x d] intermediates, and so for any pool
    size (bands of output rows, as in {!segment_sum}).  Raises
    [Invalid_argument] (naming [Tensor.edge_aggregate]) on a column
    or length mismatch or an index outside the rows of [hs] or
    [\[0, rows)]. *)

val segment_sum : t -> int array -> segments:int -> t
(** [segment_sum m seg ~segments] sums the rows of [m] into a zero
    [segments x m.cols] tensor: row [i] accumulates into row
    [seg.(i)], in increasing [i] order within each segment.  Raises
    [Invalid_argument] on a length mismatch or a segment id outside
    [\[0, segments)]. *)

val concat_cols : t list -> t
(** Horizontal concatenation; all tensors share the row count. *)

val split_cols : t -> int list -> t list
(** Inverse of {!concat_cols} given the column widths. *)

val row_sums : t -> t
(** [rows x 1] sums of each row. *)

val sum : t -> float

val mean : t -> float

val frobenius : t -> float
(** Square root of the sum of squares. *)

val segment_softmax : t -> int array -> t
(** [segment_softmax scores seg] where [scores] is [m x 1]: softmax
    normalisation within groups of equal [seg.(i)] (numerically
    stabilised).  Used for attention over each node's incoming
    edges.  Raises [Invalid_argument] on a negative segment id or a
    length mismatch. *)

val xavier : Sate_util.Rng.t -> int -> int -> t
(** Glorot-uniform initialisation for a [fan_in x fan_out] weight. *)
