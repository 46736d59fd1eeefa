(** Indexed min-priority queue over integer keys [0 .. n-1] with
    decrease-key, as needed by Dijkstra/Yen path searches.

    Priorities are floats; each key appears at most once.  Popping
    allocates nothing, and a queue emptied by {!clear} behaves exactly
    like a fresh one, so one queue serves many searches. *)

type t

val create : int -> t
(** [create n] supports keys [0 .. n-1]. *)

val mem : t -> int -> bool
(** Whether a key is currently queued. *)

val insert : t -> int -> float -> unit
(** [insert q k p] adds key [k] with priority [p].  Raises
    [Invalid_argument] if [k] is already queued. *)

val decrease : t -> int -> float -> unit
(** [decrease q k p] lowers the priority of queued key [k] to [p]
    (no-op if [p] is not lower). *)

val insert_or_decrease : t -> int -> float -> unit
(** Insert the key, or lower its priority if already queued. *)

val pop : t -> int
(** Remove and return the minimum-priority key, or [-1] when the
    queue is empty. *)

val priority : t -> int -> float
(** [priority q k] is the priority [k] last held: while queued, and
    after {!pop} removes it, until it is inserted again. *)

val clear : t -> unit
(** Remove every key, in time proportional to the keys queued. *)
