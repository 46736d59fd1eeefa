module Rng = Sate_util.Rng

(* Stream [count] snapshots sampled every [dt_s] seconds through [f]
   without retaining them (full-Starlink streams would not fit in
   memory). *)
let fold_snapshots builder ~start_s ~dt_s ~count ~init ~f =
  let acc = ref init in
  for i = 0 to count - 1 do
    let time_s = start_s +. (float_of_int i *. dt_s) in
    acc := f !acc (Builder.snapshot builder ~time_s)
  done;
  !acc

let holding_times_ms builder ~start_s ~dt_s ~count =
  let runs = ref [] in
  let finish (prev, run) =
    ignore prev;
    if run > 0 then runs := float_of_int run *. dt_s *. 1000.0 :: !runs
  in
  let final =
    fold_snapshots builder ~start_s ~dt_s ~count ~init:(None, 0)
      ~f:(fun (prev, run) snap ->
        match prev with
        | None -> (Some snap, 1)
        | Some p ->
            if Snapshot.equal_topology p snap then (Some snap, run + 1)
            else begin
              runs := float_of_int run *. dt_s *. 1000.0 :: !runs;
              (Some snap, 1)
            end)
  in
  finish final;
  Array.of_list (List.rev !runs)

(* A link "potentially changes" if its kind is anything but
   intra-orbit (Sec. 2.3.2: the number is primarily contributed by
   cross-shell links). *)
let changeable l =
  match l.Link.kind with
  | Link.Intra_orbit -> false
  | Link.Inter_orbit | Link.Cross_shell_laser | Link.Relay -> true

let exclusion_series builder ~start_s ~dt_s ~intervals =
  let intervals = List.sort_uniq compare intervals in
  let max_count = List.fold_left max 1 intervals in
  (* union: changeable links seen so far; present: count of snapshots
     containing each. *)
  let seen : (int * int, int) Hashtbl.t = Hashtbl.create 4096 in
  let results = ref [] in
  let remaining = ref intervals in
  let record idx =
    match !remaining with
    | k :: rest when k = idx ->
        let total = Hashtbl.length seen in
        let stable =
          Hashtbl.fold (fun _ c acc -> if c = idx then acc + 1 else acc) seen 0
        in
        let ratio =
          if total = 0 then 0.0
          else float_of_int (total - stable) /. float_of_int total
        in
        results := (k, ratio) :: !results;
        remaining := rest
    | _ -> ()
  in
  let _ =
    fold_snapshots builder ~start_s ~dt_s ~count:max_count ~init:0
      ~f:(fun idx snap ->
        Array.iter
          (fun l ->
            if changeable l then begin
              let key = Link.key l in
              let c = Option.value ~default:0 (Hashtbl.find_opt seen key) in
              Hashtbl.replace seen key (c + 1)
            end)
          snap.Snapshot.links;
        let idx = idx + 1 in
        record idx;
        idx)
  in
  List.rev !results

let path_obsolescence builder ~start_s ~dt_s ~checkpoints ~paths =
  let checkpoints = List.sort_uniq compare checkpoints in
  let max_count = List.fold_left max 1 checkpoints in
  let paths = Array.of_list (List.map Array.of_list paths) in
  let n = Array.length paths in
  let dead = Array.make n false in
  let results = ref [] in
  let remaining = ref checkpoints in
  let record idx =
    match !remaining with
    | k :: rest when k = idx ->
        let broken = Array.fold_left (fun acc d -> if d then acc + 1 else acc) 0 dead in
        let frac = if n = 0 then 0.0 else float_of_int broken /. float_of_int n in
        results := (k, frac) :: !results;
        remaining := rest
    | _ -> ()
  in
  let _ =
    fold_snapshots builder ~start_s ~dt_s ~count:max_count ~init:0
      ~f:(fun idx snap ->
        Array.iteri
          (fun i path ->
            if (not dead.(i)) && not (Snapshot.path_valid snap path) then
              dead.(i) <- true)
          paths;
        let idx = idx + 1 in
        record idx;
        idx)
  in
  List.rev !results

let random_link_failures snap ~rate rng =
  let failed = ref [] in
  Array.iter
    (fun l ->
      if Rng.float rng 1.0 < rate then failed := Link.key l :: !failed)
    snap.Snapshot.links;
  (Snapshot.remove_links snap !failed, !failed)
