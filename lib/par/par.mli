(** Multicore domain-pool runtime.

    A fixed-size pool of OCaml 5 domains, spawned once and fed through
    an atomic chunk counter, behind deterministic data-parallel
    combinators.  Design rules:

    - {b Deterministic chunking} — work splits into chunks whose
      boundaries are a pure function of the iteration size and chunk
      count; chunk results land in fixed, index-ordered slots.  Kernels
      whose chunks write disjoint outputs (all the kernels wired in
      this repository) therefore produce {e bit-identical} results for
      any pool size, including the sequential fallback.
    - {b Sequential fallback} — a pool of size 1 (or
      [SATE_DOMAINS=1]) runs every combinator inline with no domain
      traffic; nested submissions from inside a worker also degrade to
      inline execution instead of deadlocking the pool.
    - {b Exception safety} — the first exception raised by any chunk
      is re-raised on the submitting domain after all chunks have run;
      the pool remains usable afterwards.

    The ambient pool is created lazily on first use and shut down at
    exit.  Its size is [SATE_DOMAINS] when set, otherwise
    [min 8 (Domain.recommended_domain_count ())].  A [SATE_DOMAINS]
    that is not a positive integer makes that first use raise
    [Invalid_argument]. *)

val domains : unit -> int
(** Worker count of the ambient pool, including the submitting
    domain. *)

val with_domains : int -> (unit -> 'a) -> 'a
(** [with_domains n f] runs [f] with the ambient pool replaced by a
    fresh pool of [n] workers (at least 1), restoring (and shutting
    the temporary pool down) afterwards, even on exceptions.
    [with_domains 1] is the cheap way to force sequential execution of
    a region. *)

val range_iter : ?chunks:int -> int -> (int -> int -> unit) -> unit
(** [range_iter n f] covers [0, n) with disjoint contiguous ranges,
    calling [f lo hi] for each (the range is [lo, hi)).  [?chunks]
    overrides the default chunk count of [4 * domains ()] (it is
    clamped to [n]); kernels that pay a fixed scan cost per chunk pass
    [~chunks:(domains ())]. *)

val map_array : ('a -> 'b) -> 'a array -> 'b array
(** Like [Array.map], with elements mapped in parallel into fixed
    slots.  [f] is applied to element 0 on the submitting domain
    first (to seed the result array), then to the rest in chunks as
    in {!range_iter}. *)

val both : (unit -> 'a) -> (unit -> 'b) -> 'a * 'b
(** Run two independent computations, in parallel when the pool has
    spare workers.  Exceptions propagate as in the other combinators. *)
