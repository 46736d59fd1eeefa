(** Inter-satellite and bent-pipe link representation. *)

type kind =
  | Intra_orbit  (** Same shell, same plane, adjacent slots (stable). *)
  | Inter_orbit
      (** Same shell, adjacent planes; deactivated above the
          high-latitude threshold (Section 2.1). *)
  | Cross_shell_laser
      (** Laser to the nearest satellite in the adjacent shell; holds
          until the distance exceeds the laser range (Fig. 2b). *)
  | Relay
      (** Bent-pipe RF hop between a satellite and a ground relay;
          holds while the elevation angle stays above the threshold
          (Fig. 2c). *)

type t = {
  u : int;  (** First endpoint (node id; relays live after satellites). *)
  v : int;  (** Second endpoint. *)
  kind : kind;
  capacity_mbps : float;
  length_km : float;  (** Geometric length at snapshot time. *)
}

val key : t -> int * int
(** Canonical endpoint pair [(min u v, max u v)] used for snapshot
    comparison; a topology is its set of keys. *)

val compare_key : int * int -> int * int -> int
