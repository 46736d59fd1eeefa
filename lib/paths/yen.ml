module Snapshot = Sate_topology.Snapshot

let k_shortest snap ~src ~dst ~k =
  if k <= 0 then []
  else
    match Dijkstra.shortest snap ~src ~dst with
    | None -> []
    | Some first ->
        (* Newest-first accumulator with an explicit count: the accept
           loop runs on the per-commodity precompute hot path, and
           [!accepted @ [best]] / [List.length] per iteration would
           make it O(k^2).  Reversed once on return. *)
        let accepted = ref [ first ] in
        let accepted_n = ref 1 in
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
          let len = Array.length nodes in
          for i = 0 to len - 2 do
            let spur_node = nodes.(i) in
            let root = Array.sub nodes 0 (i + 1) in
            (* Ban links used by accepted paths sharing this root and
               ban root nodes except the spur node (looplessness). *)
            let banned_links = Hashtbl.create 16 in
            List.iter
              (fun (p : Path.t) ->
                let pn = p.Path.nodes in
                if Array.length pn > i && Array.sub pn 0 (i + 1) = root then
                  Hashtbl.replace banned_links
                    (Snapshot.link_index snap pn.(i) pn.(i + 1))
                    ())
              !accepted;
            let banned_nodes = Hashtbl.create 16 in
            Array.iteri (fun j n -> if j < i then Hashtbl.replace banned_nodes n ()) nodes;
            match
              Dijkstra.shortest
                ~banned_nodes:(Hashtbl.mem banned_nodes)
                ~banned_links:(Hashtbl.mem banned_links)
                snap ~src:spur_node ~dst
            with
            | None -> ()
            | Some spur ->
                let total =
                  Array.append (Array.sub root 0 i) spur.Path.nodes
                in
                let p = { Path.nodes = total } in
                if Path.is_loopless p then push_candidate p
          done
        in
        let rec loop last =
          if !accepted_n >= k then ()
          else begin
            spurs_of last;
            match Sate_util.Heap.pop candidates with
            | None -> ()
            | Some (_, best) ->
                accepted := best :: !accepted;
                incr accepted_n;
                loop best
          end
        in
        loop first;
        List.rev !accepted
