module Snapshot = Sate_topology.Snapshot

(* [p] starts with the [i + 1] nodes [root.(0 .. i)]. *)
let shares_root (p : Path.t) root i =
  let pn = p.Path.nodes in
  let j = ref 0 in
  while !j <= i && !j < Array.length pn && pn.(!j) = root.(!j) do
    incr j
  done;
  !j > i

let paths snap ~src ~dst () =
  (* One workspace for the first search and every spur search. *)
  let ws = Dijkstra.workspace Dijkstra.Hops snap in
  match Dijkstra.shortest_in ws ~src ~dst with
  | None -> Seq.Nil
  | Some first ->
      let accepted = ref [ first ] in
      (* Candidate pool keyed by cost; paths deduplicated. *)
      let candidates = Sate_util.Heap.create () in
      let known = Hashtbl.create 64 in
      Hashtbl.replace known first.Path.nodes ();
      let push_candidate p =
        if not (Hashtbl.mem known p.Path.nodes) then begin
          Hashtbl.replace known p.Path.nodes ();
          Sate_util.Heap.push candidates (float_of_int (Path.hops p)) p
        end
      in
      let spurs_of prev_path =
        let nodes = prev_path.Path.nodes in
        for i = 0 to Array.length nodes - 2 do
          (* Ban links used by accepted paths sharing this root and
             ban root nodes except the spur node (looplessness). *)
          Dijkstra.unban ws;
          List.iter
            (fun (p : Path.t) ->
              if shares_root p nodes i then
                Dijkstra.ban_link ws
                  (Snapshot.link_index snap p.Path.nodes.(i) p.Path.nodes.(i + 1)))
            !accepted;
          for j = 0 to i - 1 do
            Dijkstra.ban_node ws nodes.(j)
          done;
          match Dijkstra.shortest_in ws ~src:nodes.(i) ~dst with
          | None -> ()
          | Some spur ->
              let p = { Path.nodes = Array.append (Array.sub nodes 0 i) spur.Path.nodes } in
              if Path.is_loopless p then push_candidate p
        done
      in
      (* Path [n + 1] is the cheapest candidate after the spurs of path
         [n]; nothing is searched until the sequence asks for it. *)
      let rec after last () =
        spurs_of last;
        match Sate_util.Heap.pop candidates with
        | None -> Seq.Nil
        | Some (_, best) ->
            accepted := best :: !accepted;
            Seq.Cons (best, after best)
      in
      Seq.Cons (first, after first)

let k_shortest snap ~src ~dst ~k =
  if k <= 0 then [] else List.of_seq (Seq.take k (paths snap ~src ~dst))
