(** A topology snapshot: node positions plus the live link set at one
    instant.

    Nodes are numbered [0 .. num_sats - 1] for satellites and
    [num_sats .. num_sats + num_relays - 1] for ground relays (relays
    participate as graph nodes only in the bent-pipe scenario). *)

type t = {
  time_s : float;
  num_sats : int;
  num_relays : int;
  sat_positions : Sate_geo.Geo.vec3 array;
  relay_positions : Sate_geo.Geo.vec3 array;
  links : Link.t array;
  adj : (int * int) list array;
      (** [adj.(node)] lists [(neighbour, link_index)] pairs. *)
}

val make :
  time_s:float ->
  num_sats:int ->
  sat_positions:Sate_geo.Geo.vec3 array ->
  relay_positions:Sate_geo.Geo.vec3 array ->
  links:Link.t list ->
  t
(** Build a snapshot, computing adjacency.  Self-loops and duplicate
    endpoint pairs are rejected with [Invalid_argument]. *)

val num_nodes : t -> int
(** Satellites plus relays. *)

val position : t -> int -> Sate_geo.Geo.vec3
(** Position of any node (satellite or relay). *)

val neighbors : t -> int -> (int * int) list
(** [(neighbour, link_index)] pairs of a node. *)

val link_index : t -> int -> int -> int
(** [link_index t u v] is the index into [t.links] of the link joining
    [u] and [v] (either order), or [-1] when there is none.  The one
    hop-to-link lookup: [make] rejects duplicate endpoint pairs, so a
    node pair has at most one link.  Allocates nothing. *)

val link_keys : t -> (int * int) array
(** Sorted canonical endpoint pairs; two snapshots with equal key
    arrays have the same topology. *)

val equal_topology : t -> t -> bool
(** Whether two snapshots have identical link sets. *)

val degree : t -> int -> int

val remove_links : t -> (int * int) list -> t
(** Snapshot with the given endpoint pairs removed (failure
    injection); unknown pairs are ignored. *)

val path_valid : t -> int array -> bool
(** Whether every consecutive node pair of a path has a
    {!link_index}.  Allocates nothing: it runs for every stored path in
    each round's path-database update. *)
