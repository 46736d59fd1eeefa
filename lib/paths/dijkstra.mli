(** Shortest paths over a topology snapshot. *)

type weight = Hops  (** Unit cost per link. *) | Km  (** Geometric length. *)

val shortest :
  ?weight:weight ->
  ?banned_nodes:(int -> bool) ->
  ?banned_links:(int -> bool) ->
  Sate_topology.Snapshot.t ->
  src:int ->
  dst:int ->
  Path.t option
(** Dijkstra from [src] to [dst], avoiding [banned_nodes] (node ids)
    and [banned_links] (indices into [snapshot.links]).  Default
    weight is [Hops].  Raises [Invalid_argument] if an endpoint is out
    of range. *)

val distances :
  ?weight:weight ->
  Sate_topology.Snapshot.t ->
  sources:(int * float) list ->
  float array
(** Distances from the nearest of several seeded sources: each
    [(node, d0)] starts at initial distance [d0] (a single
    [[(src, 0.0)]] gives one-to-all distances).  [infinity] when
    unreachable.  Raises [Invalid_argument] if a source is out of
    range. *)

(** {2 Repeated searches}

    A workspace holds the arrays, queue and ban sets of a search over
    one snapshot and is reset, not reallocated, between searches, as
    Yen's spur searches need.  [shortest] and [distances] run the same
    search on a fresh workspace.  A workspace is not shared between
    domains. *)

type workspace

val workspace : weight -> Sate_topology.Snapshot.t -> workspace
(** Fresh workspace for searches over the snapshot, nothing banned. *)

val ban_node : workspace -> int -> unit
(** Exclude a node from later searches, until {!unban}. *)

val ban_link : workspace -> int -> unit
(** Exclude a link (index into [snapshot.links]) from later searches,
    until {!unban}. *)

val unban : workspace -> unit
(** Lift every ban, in constant time. *)

val shortest_in : workspace -> src:int -> dst:int -> Path.t option
(** {!shortest} over the workspace's snapshot, weight and bans. *)

val bfs_nearest :
  Sate_topology.Snapshot.t ->
  src:int ->
  follow:(Sate_topology.Link.t -> bool) ->
  accept:(int -> 'a option) ->
  (int list * 'a) option
(** Breadth-first search from [src] along links satisfying [follow],
    testing nodes with [accept] in the order they leave the queue.
    Returns the node path [src .. node] to the first node [accept]
    maps to [Some x], together with [x]; the path has the node's BFS
    hop distance (the recursive nearest-crossing search of
    Appendix C). *)
