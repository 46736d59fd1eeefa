let sum xs =
  (* Kahan summation: latency samples span several orders of magnitude. *)
  let total = ref 0.0 and c = ref 0.0 in
  Array.iter
    (fun x ->
      let y = x -. !c in
      let t = !total +. y in
      c := t -. !total -. y;
      total := t)
    xs;
  !total

let mean xs =
  let n = Array.length xs in
  if n = 0 then Float.nan else sum xs /. float_of_int n

let variance xs =
  let n = Array.length xs in
  if n = 0 then Float.nan
  else
    let m = mean xs in
    let acc = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs in
    acc /. float_of_int n

let std xs = sqrt (variance xs)

let coefficient_of_variation xs =
  let m = mean xs in
  if Float.is_nan m || m = 0.0 then Float.nan else std xs /. m

let min_max xs =
  if Array.length xs = 0 then invalid_arg "Stats.min_max: empty";
  Array.fold_left
    (fun (lo, hi) x -> (Float.min lo x, Float.max hi x))
    (xs.(0), xs.(0))
    xs

(* NaN policy for order statistics: a NaN sample has no rank, so any
   sorted position we could give it would silently corrupt the
   percentile — reject loudly instead.  (Polymorphic [compare] both
   boxes every float on this hot path and leaves NaN placement
   unspecified; [Float.compare] after this check is total.) *)
let reject_nan name xs =
  Array.iter
    (fun x -> if Float.is_nan x then invalid_arg (name ^ ": NaN sample"))
    xs

let percentile xs p =
  if Array.length xs = 0 then invalid_arg "Stats.percentile: empty";
  if Float.is_nan p || p < 0.0 || p > 100.0 then
    invalid_arg "Stats.percentile: p out of range";
  reject_nan "Stats.percentile" xs;
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  if n = 1 then sorted.(0)
  else
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))

let median xs = percentile xs 50.0

let cdf_points xs n =
  if Array.length xs = 0 || n <= 0 then []
  else begin
    reject_nan "Stats.cdf_points" xs;
    let sorted = Array.copy xs in
    Array.sort Float.compare sorted;
    let len = Array.length sorted in
    List.init n (fun i ->
        let frac = float_of_int (i + 1) /. float_of_int n in
        let idx = min (len - 1) (int_of_float (frac *. float_of_int len) - 1) in
        let idx = max 0 idx in
        (sorted.(idx), frac))
  end
