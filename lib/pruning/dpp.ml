module Rng = Sate_util.Rng

let rbf sigma a b =
  let d = Graph_features.euclidean a b in
  exp (-.(d *. d) /. (2.0 *. sigma *. sigma))

let median_distance vectors =
  let n = Array.length vectors in
  if n < 2 then 1.0
  else begin
    (* Sample up to ~200 pairs deterministically. *)
    let ds = ref [] in
    let stride = max 1 (n * (n - 1) / 2 / 200) in
    let count = ref 0 in
    for i = 0 to n - 2 do
      for j = i + 1 to n - 1 do
        if !count mod stride = 0 then
          ds := Graph_features.euclidean vectors.(i) vectors.(j) :: !ds;
        incr count
      done
    done;
    let arr = Array.of_list !ds in
    if Array.length arr = 0 then 1.0
    else begin
      let m = Sate_util.Stats.median arr in
      if m > 1e-9 then m else 1.0
    end
  end

let select ~vectors ~k =
  let n = Array.length vectors in
  if n = 0 || k <= 0 then [||]
  else begin
    let sigma = median_distance vectors in
    let k = min k n in
    (* Chen et al. fast greedy MAP: d2.(i) is the current marginal
       gain; cis.(step).(i) the Cholesky coefficients. *)
    let d2 = Array.make n 1.0 in
    (* K_ii = 1 for RBF. *)
    let cis = Array.make_matrix k n 0.0 in
    let selected = ref [] in
    let chosen = Array.make n false in
    let continue = ref true in
    let step = ref 0 in
    while !continue && !step < k do
      let best = ref (-1) and best_gain = ref 1e-12 in
      for i = 0 to n - 1 do
        if (not chosen.(i)) && d2.(i) > !best_gain then begin
          best_gain := d2.(i);
          best := i
        end
      done;
      (* Near-duplicate vectors exhaust the determinant gain early;
         keep filling to k with the best remaining candidates so the
         caller gets the requested sample size (standard MAP-DPP
         practice). *)
      let fallback = !best < 0 in
      if fallback then begin
        let i = ref 0 and pick = ref (-1) in
        while !pick < 0 && !i < n do
          if not chosen.(!i) then pick := !i;
          incr i
        done;
        best := !pick
      end;
      if !best < 0 then continue := false
      else begin
        let j = !best in
        chosen.(j) <- true;
        selected := j :: !selected;
        let dj = sqrt (Float.max 1e-12 d2.(j)) in
        for i = 0 to n - 1 do
          if not chosen.(i) then begin
            let kij = rbf sigma vectors.(j) vectors.(i) in
            let dot = ref 0.0 in
            for s = 0 to !step - 1 do
              dot := !dot +. (cis.(s).(j) *. cis.(s).(i))
            done;
            let e = (kij -. !dot) /. dj in
            cis.(!step).(i) <- e;
            d2.(i) <- d2.(i) -. (e *. e)
          end
        done;
        incr step
      end
    done;
    Array.of_list (List.rev !selected)
  end

let select_random ~seed ~n ~k =
  let rng = Rng.create seed in
  let idx = Array.init n Fun.id in
  Rng.shuffle rng idx;
  Array.sub idx 0 (min k n)
