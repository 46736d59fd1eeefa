(** Deterministic pseudo-random number generation.

    All stochastic components of the library draw from this module so
    that experiments are reproducible from an explicit seed.  The
    generator is SplitMix64 (Steele, Lea & Flood 2014): tiny state,
    excellent statistical quality for simulation purposes, and a
    [split] operation that derives independent streams. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator from [seed]. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    independent of the remainder of [t]'s stream. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t n] is uniform on \[0, n) — exactly uniform: rejection
    sampling avoids the modulo bias of taking raw bits mod [n].
    Raises [Invalid_argument] if [n <= 0]. *)

val float : t -> float -> float
(** [float t x] is uniform on \[0, x). *)

val uniform : t -> float -> float -> float
(** [uniform t lo hi] is uniform on \[lo, hi). *)

val bool : t -> bool
(** Fair coin flip. *)

val normal : t -> mean:float -> std:float -> float
(** Gaussian sample (Box–Muller). *)

val exponential : t -> rate:float -> float
(** Exponential sample with given rate (mean [1. /. rate]). *)

val poisson : t -> lambda:float -> int
(** Poisson sample.  Uses Knuth's method for small [lambda] and a
    normal approximation above 30 (adequate for flow-arrival counts). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)
