module Snapshot = Sate_topology.Snapshot

let dimension = 128

(* Deterministic string hash (FNV-1a) so vectors are stable across
   runs — Hashtbl.hash is also deterministic but unspecified across
   compiler versions. *)
let fnv1a s =
  let h = ref 0x84222325 in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x100000001b3)
    s;
  !h land max_int

(* Weisfeiler-Lehman refinement rounds. *)
let rounds = 3

let vectorize snap =
  let n = Snapshot.num_nodes snap in
  let counts = Array.make dimension 0.0 in
  let labels = Array.init n (fun i -> string_of_int (Snapshot.degree snap i)) in
  let record lbl =
    counts.(fnv1a lbl mod dimension) <- counts.(fnv1a lbl mod dimension) +. 1.0
  in
  Array.iter record labels;
  let current = ref labels in
  for _ = 1 to rounds do
    let next =
      Array.mapi
        (fun i lbl ->
          let neigh =
            Snapshot.neighbors snap i
            |> List.map (fun (j, _) -> !current.(j))
            |> List.sort compare
          in
          lbl ^ "|" ^ String.concat "," neigh)
        !current
    in
    (* Compress labels to their hash to bound string growth. *)
    let compressed = Array.map (fun l -> string_of_int (fnv1a l)) next in
    Array.iter record compressed;
    current := compressed
  done;
  let norm = sqrt (Array.fold_left (fun a v -> a +. (v *. v)) 0.0 counts) in
  if norm > 0.0 then Array.map (fun v -> v /. norm) counts else counts

let cosine a b =
  let dot = ref 0.0 and na = ref 0.0 and nb = ref 0.0 in
  Array.iteri
    (fun i v ->
      dot := !dot +. (v *. b.(i));
      na := !na +. (v *. v);
      nb := !nb +. (b.(i) *. b.(i)))
    a;
  if !na = 0.0 || !nb = 0.0 then 0.0 else !dot /. sqrt (!na *. !nb)

let euclidean a b =
  let acc = ref 0.0 in
  Array.iteri
    (fun i v ->
      let d = v -. b.(i) in
      acc := !acc +. (d *. d))
    a;
  sqrt !acc
