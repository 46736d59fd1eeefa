(** Binary min-heap keyed by float priority.

    Used by the discrete-event traffic simulator (flow expiries) and
    by shortest-path searches that do not need decrease-key. *)

type 'a t

val create : unit -> 'a t
(** Fresh empty heap. *)

val length : 'a t -> int
(** Number of stored elements. *)

val is_empty : 'a t -> bool

val push : 'a t -> float -> 'a -> unit
(** [push h prio x] inserts [x] with priority [prio]. *)

val peek : 'a t -> (float * 'a) option
(** Smallest-priority element without removing it. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the smallest-priority element.  The vacated
    internal slot is cleared, so the heap never retains a popped value
    from the GC. *)

val clear : 'a t -> unit
(** Remove all elements, releasing every stored value reference. *)
