type kind = Intra_orbit | Inter_orbit | Cross_shell_laser | Relay

type t = {
  u : int;
  v : int;
  kind : kind;
  capacity_mbps : float;
  length_km : float;
}

let key t = if t.u <= t.v then (t.u, t.v) else (t.v, t.u)

let compare_key (a1, b1) (a2, b2) =
  match compare a1 a2 with 0 -> compare b1 b2 | c -> c
