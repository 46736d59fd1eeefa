(** Stateful topology-snapshot generator.

    Implements the link rules of Sections 2.1 and 2.3.1:

    - intra-orbit ISLs are permanent;
    - inter-orbit ISLs deactivate while either endpoint is above the
      high-latitude threshold (default 75 degrees, Section 2.1);
    - cross-shell lasers pair each satellite with the nearest
      satellite of the adjacent shell and, thanks to hysteresis, hold
      until the distance exceeds the laser range of 2,000 km
      (Section 2.3.1);
    - bent-pipe relay links pair each satellite with the nearest of
      the 222 {!Relay_sites} and hold while the elevation angle stays
      above 25 degrees (Section 2.3.1);
    - every link carries 200 Mbps (scaled units, Section 4).

    Hysteresis means snapshots must be requested in non-decreasing
    time order; the builder keeps the current pairings between calls
    exactly as real laser terminals keep lock until geometry breaks. *)

type cross_shell_mode =
  | Lasers  (** Fig. 2 (b): direct lasers between adjacent shells. *)
  | Ground_relays  (** Fig. 2 (c): bent-pipe via ground relays. *)

type config = {
  cross_shell : cross_shell_mode;
  high_latitude_deg : float;  (** Inter-orbit cut-off, default 75. *)
}

val default_config : config
(** Paper defaults: lasers, 75 deg. *)

type t

val create : ?config:config -> Sate_orbit.Constellation.t -> t
(** [create constellation] prepares a generator, with the 222
    {!Relay_sites} when the mode is [Ground_relays] and no relays
    otherwise. *)

val snapshot : t -> time_s:float -> Snapshot.t
(** Produce the topology at [time_s].  Calls must use non-decreasing
    times (hysteresis); a decreasing time raises [Invalid_argument]. *)

val reset : t -> unit
(** Forget pairing state so time may restart from zero. *)
