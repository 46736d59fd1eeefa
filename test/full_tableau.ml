(* Reference for Sate_lp.Simplex: the same Big-M simplex on the full
   tableau, basic columns included.  Simplex.solve drops the basic
   columns and skips the pivot row's zeros; its outcome must match
   this one bit for bit. *)

open Sate_lp.Simplex

let eps = 1e-9

let solve ?(maximize = true) ?max_iters ~c ~constraints () =
  let n = Array.length c in
  let c = if maximize then Array.copy c else Array.map (fun v -> -.v) c in
  let flipped { rhs; _ } = rhs < 0.0 in
  let sense_of ({ sense; _ } as r) =
    if flipped r then (match sense with Le -> Ge | Ge -> Le | Eq -> Eq) else sense
  in
  let m = List.length constraints in
  let count f = List.fold_left (fun acc r -> if f (sense_of r) then acc + 1 else acc) 0 in
  let n_slack = count (fun s -> s <> Eq) constraints in
  let n_art = count (fun s -> s <> Le) constraints in
  let total = n + n_slack + n_art in
  let tab = Array.make_matrix m (total + 1) 0.0 in
  let basis = Array.make m (-1) in
  let scale =
    List.fold_left
      (fun acc { terms; rhs; _ } ->
        Array.fold_left
          (fun a (_, v) -> Float.max a (Float.abs v))
          (Float.max acc (Float.abs rhs))
          terms)
      (Array.fold_left (fun a v -> Float.max a (Float.abs v)) 1.0 c)
      constraints
  in
  let big_m = 1e6 *. scale in
  let slack_idx = ref n and art_idx = ref (n + n_slack) in
  List.iteri
    (fun i ({ terms; rhs; _ } as r) ->
      let row = tab.(i) in
      if flipped r then begin
        Array.fill row 0 n (-0.0);
        Array.iter (fun (j, a) -> row.(j) <- -.a) terms;
        row.(total) <- -.rhs
      end
      else begin
        Array.iter (fun (j, a) -> row.(j) <- a) terms;
        row.(total) <- rhs
      end;
      match sense_of r with
      | Le ->
          row.(!slack_idx) <- 1.0;
          basis.(i) <- !slack_idx;
          incr slack_idx
      | Ge ->
          row.(!slack_idx) <- -1.0;
          incr slack_idx;
          row.(!art_idx) <- 1.0;
          basis.(i) <- !art_idx;
          incr art_idx
      | Eq ->
          row.(!art_idx) <- 1.0;
          basis.(i) <- !art_idx;
          incr art_idx)
    constraints;
  let obj = Array.make (total + 1) 0.0 in
  for j = 0 to n - 1 do
    obj.(j) <- -.c.(j)
  done;
  for j = n + n_slack to total - 1 do
    obj.(j) <- big_m
  done;
  for i = 0 to m - 1 do
    if basis.(i) >= n + n_slack then
      for j = 0 to total do
        obj.(j) <- obj.(j) -. (big_m *. tab.(i).(j))
      done
  done;
  let max_iters = match max_iters with Some k -> k | None -> 50 * (m + total + 1) in
  let rec loop iter =
    if iter > max_iters then `Iters
    else begin
      let entering = ref (-1) in
      if iter <= max_iters / 2 then begin
        let best = ref (-.eps) in
        for j = 0 to total - 1 do
          if obj.(j) < !best then begin
            best := obj.(j);
            entering := j
          end
        done
      end
      else begin
        let j = ref 0 in
        while !entering < 0 && !j < total do
          if obj.(!j) < -.eps then entering := !j;
          incr j
        done
      end;
      if !entering < 0 then `Optimal
      else begin
        let e = !entering in
        let leave = ref (-1) and best_ratio = ref Float.infinity in
        for i = 0 to m - 1 do
          let a = tab.(i).(e) in
          if a > eps then begin
            let ratio = tab.(i).(total) /. a in
            if
              ratio < !best_ratio -. eps
              || (ratio < !best_ratio +. eps
                 && (!leave < 0 || basis.(i) < basis.(!leave)))
            then begin
              best_ratio := ratio;
              leave := i
            end
          end
        done;
        if !leave < 0 then `Unbounded
        else begin
          let r = !leave in
          let pivot = tab.(r).(e) in
          for j = 0 to total do
            tab.(r).(j) <- tab.(r).(j) /. pivot
          done;
          let eliminate row =
            let factor = row.(e) in
            if Float.abs factor > 0.0 then
              for j = 0 to total do
                row.(j) <- row.(j) -. (factor *. tab.(r).(j))
              done
          in
          Array.iteri (fun i row -> if i <> r then eliminate row) tab;
          eliminate obj;
          basis.(r) <- e;
          loop (iter + 1)
        end
      end
    end
  in
  match loop 1 with
  | `Unbounded -> Unbounded
  | `Iters -> Iteration_limit
  | `Optimal ->
      let feasibility_tol = 1e-6 *. Float.max 1.0 scale in
      let infeasible = ref false in
      for i = 0 to m - 1 do
        if basis.(i) >= n + n_slack && tab.(i).(total) > feasibility_tol then
          infeasible := true
      done;
      if !infeasible then Infeasible
      else begin
        let solution = Array.make n 0.0 in
        for i = 0 to m - 1 do
          if basis.(i) < n then solution.(basis.(i)) <- tab.(i).(total)
        done;
        let v = ref 0.0 in
        for j = 0 to n - 1 do
          v := !v +. (c.(j) *. solution.(j))
        done;
        Optimal { objective = (if maximize then !v else -. !v); solution }
      end
