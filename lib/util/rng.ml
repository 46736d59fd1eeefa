type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

(* SplitMix64 output function: xor-shift + multiply avalanche. *)
let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t =
  let seed = bits64 t in
  { state = seed }

let int t n =
  if n <= 0 then invalid_arg "Rng.int: n must be positive";
  (* Keep 62 bits so the value fits a non-negative OCaml int.
     Rejection sampling removes the modulo bias of [v mod n] when n
     does not divide 2^62: draws landing in the final partial bucket
     are redrawn (probability < n / 2^62). *)
  let rec draw () =
    let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
    let r = v mod n in
    if v - r > max_int - (n - 1) then draw () else r
  in
  draw ()

let float01 t =
  (* 53 high bits scaled to [0,1). *)
  let v = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  v *. (1.0 /. 9007199254740992.0)

let float t x = float01 t *. x

let uniform t lo hi = lo +. (float01 t *. (hi -. lo))

let bool t = Int64.logand (bits64 t) 1L = 1L

let normal t ~mean ~std =
  let u1 = max 1e-12 (float01 t) in
  let u2 = float01 t in
  let r = sqrt (-2.0 *. log u1) in
  mean +. (std *. r *. cos (2.0 *. Float.pi *. u2))

let exponential t ~rate =
  let u = max 1e-12 (float01 t) in
  -.log u /. rate

let poisson t ~lambda =
  if lambda <= 0.0 then 0
  else if lambda < 30.0 then begin
    (* Knuth: multiply uniforms until below exp(-lambda). *)
    let limit = exp (-.lambda) in
    let rec loop k p =
      let p = p *. float01 t in
      if p <= limit then k else loop (k + 1) p
    in
    loop 0 1.0
  end
  else
    let x = normal t ~mean:lambda ~std:(sqrt lambda) in
    max 0 (int_of_float (Float.round x))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))
