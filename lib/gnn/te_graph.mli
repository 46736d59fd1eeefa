(** The heterogeneous satellite TE graph (Section 3.2, Fig. 6).

    Three node kinds — {e satellite} (topology nodes, including
    ground relays in the bent-pipe regime), {e path} (candidate paths
    of all commodities), and {e traffic} (non-zero demand entries) —
    and the three relation kinds of the simplified graph (Fig. 6b):

    - R1 {e connects}: satellite <-> satellite, one directed edge pair
      per live ISL, edge feature = link capacity (the Link element of
      Fig. 6a merged into the relation weight);
    - R2 {e crosses}: path <-> satellite for every satellite a path
      traverses, edge feature = hop position along the path;
    - R3 {e transports}: path <-> traffic demand it can carry, edge
      feature = the demand's candidate-path count.

    The optional {e access} relation (traffic <-> its source and
    destination satellites) is the redundancy removed by the graph
    reduction; it is materialised only when [with_access_relation] is
    set, for the ablation study. *)

open Sate_tensor

type edges = {
  src : int array;  (** Source node index per edge (into the source set). *)
  dst : int array;  (** Destination node index per edge. *)
  feat : Tensor.t;  (** [m x 1] edge features. *)
}

type t = {
  num_sats : int;
  num_paths : int;
  num_traffic : int;
  sat_feat : Tensor.t;  (** [S x 1] neighbour counts (NE1 input). *)
  path_feat : Tensor.t;  (** [P x 1] path lengths (NE2 input). *)
  traffic_feat : Tensor.t;  (** [T x 1] demands (NE3 input). *)
  r1 : edges;  (** satellite -> satellite. *)
  r2 : edges;  (** path -> satellite (reverse direction derived). *)
  r3 : edges;  (** path -> traffic (reverse direction derived). *)
  access : edges option;  (** traffic -> satellite, ablation only. *)
  path_commodity : int array;  (** Commodity index of each path node. *)
  path_demand : float array;  (** Demand of each path's commodity. *)
  incidence_path : int array;
      (** Flattened (path, link) incidence: path node per entry, one
          entry per hop of every path, in path-node order. *)
  incidence_link : int array;
      (** Snapshot link index per entry: the instance's [path_links],
          flattened in path-node order. *)
  link_caps : float array;
      (** Capacity of every snapshot link, the link range of
          [Instance.caps]; links no path uses are included. *)
}

val demand_scale : float
(** Mbps per unit of the demand features (traffic and access). *)

val capacity_scale : float
(** Mbps per unit of the link-capacity feature of R1. *)

val of_instance : ?with_access_relation:bool -> Sate_te.Instance.t -> t
(** Build the graph for a TE instance.  Feature scales are normalised
    (demands by {!demand_scale}, capacities by {!capacity_scale},
    positions by path length) so embeddings start O(1). *)

val reverse : edges -> edges
(** Swap edge direction (for the path -> sat / sat -> path pair). *)
