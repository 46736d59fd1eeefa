type sense = Le | Ge | Eq

type constr = { terms : (int * float) array; sense : sense; rhs : float }

type outcome =
  | Optimal of { objective : float; solution : float array }
  | Infeasible
  | Unbounded
  | Iteration_limit

let eps = 1e-9

let solve ?(maximize = true) ?max_iters ~c ~constraints () =
  let n = Array.length c in
  List.iter
    (fun { terms; _ } ->
      Array.iteri
        (fun k (j, _) ->
          if j < 0 || j >= n || (k > 0 && j <= fst terms.(k - 1)) then
            invalid_arg "Simplex.solve: term index out of range or out of order")
        terms)
    constraints;
  (* Normalize: maximization with non-negative rhs.  A row with a
     negative rhs enters the tableau negated, with its sense flipped. *)
  let c = if maximize then Array.copy c else Array.map (fun v -> -.v) c in
  let flipped { rhs; _ } = rhs < 0.0 in
  let sense_of ({ sense; _ } as r) =
    if flipped r then (match sense with Le -> Ge | Ge -> Le | Eq -> Eq) else sense
  in
  let m = List.length constraints in
  let n_slack =
    List.fold_left
      (fun acc r -> match sense_of r with Le | Ge -> acc + 1 | Eq -> acc)
      0 constraints
  in
  let n_art =
    List.fold_left
      (fun acc r -> match sense_of r with Ge | Eq -> acc + 1 | Le -> acc)
      0 constraints
  in
  let total = n + n_slack + n_art in
  (* The tableau keeps only the non-basic columns, plus the rhs in
     column [nb]: a basic column is a unit vector (its reduced cost
     zero), so storing it would only cost memory and bandwidth.
     [var.(s)] is the variable held in slot [s]; when a variable
     enters the basis, the leaving one takes over its slot.  Every
     stored value follows the same floating-point operations, in the
     same order, as in the full tableau, so the pivots and the
     solution are those of the full tableau. *)
  let nb = total - m in
  let tab = Array.make_matrix m (nb + 1) 0.0 in
  let var = Array.make nb (-1) in
  for j = 0 to n - 1 do
    var.(j) <- j
  done;
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
  let slack_idx = ref n and art_idx = ref (n + n_slack) and surplus_slot = ref n in
  List.iteri
    (fun i ({ terms; rhs; _ } as r) ->
      let row = tab.(i) in
      if flipped r then begin
        (* Negating a row negates its zeros too. *)
        Array.fill row 0 n (-0.0);
        Array.iter (fun (j, a) -> row.(j) <- -.a) terms;
        row.(nb) <- -.rhs
      end
      else begin
        Array.iter (fun (j, a) -> row.(j) <- a) terms;
        row.(nb) <- rhs
      end;
      match sense_of r with
      | Le ->
          basis.(i) <- !slack_idx;
          incr slack_idx
      | Ge ->
          row.(!surplus_slot) <- -1.0;
          var.(!surplus_slot) <- !slack_idx;
          incr surplus_slot;
          incr slack_idx;
          basis.(i) <- !art_idx;
          incr art_idx
      | Eq ->
          basis.(i) <- !art_idx;
          incr art_idx)
    constraints;
  (* Reduced costs of the non-basic slots (a negative entry means
     improvement is possible), with the initial artificial basics
     priced out. *)
  let obj = Array.make (nb + 1) 0.0 in
  for j = 0 to n - 1 do
    obj.(j) <- -.c.(j)
  done;
  for i = 0 to m - 1 do
    if basis.(i) >= n + n_slack then
      for s = 0 to nb - 1 do
        obj.(s) <- obj.(s) -. (big_m *. tab.(i).(s))
      done
  done;
  let max_iters =
    match max_iters with Some k -> k | None -> 50 * (m + total + 1)
  in
  let bland_after = max_iters / 2 in
  let support = Array.make (nb + 1) 0 in
  let status = ref `Running in
  let iter = ref 0 in
  while !status = `Running do
    incr iter;
    if !iter > max_iters then status := `Iters
    else begin
      (* Entering slot: the most negative reduced cost, or under
         Bland's rule the first improving one, ties going to the
         lowest variable index. *)
      let entering = ref (-1) in
      let bland = !iter > bland_after in
      let best = ref (-.eps) in
      for s = 0 to nb - 1 do
        let v = obj.(s) in
        if bland then begin
          if v < -.eps && (!entering < 0 || var.(s) < var.(!entering)) then
            entering := s
        end
        else if v < !best || (v = !best && !entering >= 0 && var.(s) < var.(!entering))
        then begin
          best := v;
          entering := s
        end
      done;
      if !entering < 0 then status := `Optimal
      else begin
        (* Ratio test (Bland tie-break on basis index). *)
        let e = !entering in
        let leave = ref (-1) and best_ratio = ref Float.infinity in
        for i = 0 to m - 1 do
          let a = tab.(i).(e) in
          if a > eps then begin
            let ratio = tab.(i).(nb) /. a in
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
        if !leave < 0 then status := `Unbounded
        else begin
          let r = !leave in
          let prow = tab.(r) in
          let pivot = prow.(e) in
          (* The leaving variable's column is the unit vector of row
             [r]; it takes slot [e], so the pivot row holds
             [1 / pivot] there and every other row
             [0 - factor * (1 / pivot)].
             Elimination runs along the pivot row's non-zeros only,
             plus the rhs column: subtracting [factor *. 0.0] changes
             at most the sign of a zero, and the rhs column is always
             updated so that the solution keeps its signed zeros. *)
          prow.(e) <- 1.0;
          let nnz = ref 0 in
          for s = 0 to nb - 1 do
            let v = prow.(s) /. pivot in
            prow.(s) <- v;
            if v <> 0.0 then begin
              support.(!nnz) <- s;
              incr nnz
            end
          done;
          prow.(nb) <- prow.(nb) /. pivot;
          support.(!nnz) <- nb;
          let nnz = !nnz + 1 in
          (* Indices in [support] are below [nb + 1], the length of
             every row. *)
          let eliminate row =
            let factor = row.(e) in
            if Float.abs factor > 0.0 then begin
              row.(e) <- 0.0;
              for k = 0 to nnz - 1 do
                let j = Array.unsafe_get support k in
                Array.unsafe_set row j
                  (Array.unsafe_get row j -. (factor *. Array.unsafe_get prow j))
              done
            end
          in
          for i = 0 to m - 1 do
            if i <> r then eliminate tab.(i)
          done;
          eliminate obj;
          let leaving = basis.(r) in
          basis.(r) <- var.(e);
          var.(e) <- leaving
        end
      end
    end
  done;
  match !status with
  | `Unbounded -> Unbounded
  | `Iters -> Iteration_limit
  | `Optimal | `Running ->
      (* Infeasible if an artificial variable stays basic at a
         non-trivial level. *)
      let feasibility_tol = 1e-6 *. Float.max 1.0 scale in
      let infeasible = ref false in
      for i = 0 to m - 1 do
        if basis.(i) >= n + n_slack && tab.(i).(nb) > feasibility_tol then
          infeasible := true
      done;
      if !infeasible then Infeasible
      else begin
        let solution = Array.make n 0.0 in
        for i = 0 to m - 1 do
          if basis.(i) < n then solution.(basis.(i)) <- tab.(i).(nb)
        done;
        let objective =
          let v = ref 0.0 in
          for j = 0 to n - 1 do
            v := !v +. (c.(j) *. solution.(j))
          done;
          if maximize then !v else -. !v
        in
        Optimal { objective; solution }
      end
