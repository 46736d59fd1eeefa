(* Tests for Sate_nn: autodiff gradient checks against finite
   differences, layers, optimizer convergence. *)

open Sate_tensor
module A = Sate_nn.Autodiff
module Layers = Sate_nn.Layers
module Optimizer = Sate_nn.Optimizer
module Rng = Sate_util.Rng
module Grad_check = Sate_check.Grad_check

(* Autodiff gradient of [build] wrt a fresh leaf from [x0], against
   central finite differences at [Grad_check.default_tol]. *)
let gradient_check name build x0 =
  let r = Grad_check.check ~name ~build x0 in
  if not r.Grad_check.passed then Alcotest.fail (Grad_check.result_to_string r)

let rand_tensor seed rows cols =
  let rng = Rng.create seed in
  Tensor.init rows cols (fun _ _ -> Rng.uniform rng (-1.0) 1.0)

(* Each op alone, operand by operand, is checked by
   [Grad_check.all_ops] ("check grad all ops"); the cases here are the
   graphs it lacks: a leaf used twice, a diamond, a composite. *)
let test_grad_add_mul () =
  gradient_check "sum((x + x) * x)"
    (fun x -> A.sum (A.mul (A.add x x) x))
    (rand_tensor 1 3 2);
  (* Diamond: the non-leaf [h] feeds two branches that meet again, so
     its lazily allocated gradient is accumulated more than once. *)
  gradient_check "diamond through a shared non-leaf"
    (fun x ->
      let h = A.sigmoid (A.matmul x (A.const (rand_tensor 36 2 2))) in
      A.sum (A.mul (A.exp h) (A.square h)))
    (rand_tensor 37 3 2)

let test_grad_composite_attention () =
  (* A miniature GAT-like computation: the composite must also pass. *)
  let w = rand_tensor 24 2 2 in
  let src = [| 0; 1; 2; 0 |] and dst = [| 1; 2; 0; 2 |] in
  gradient_check "mini attention block"
    (fun x ->
      let h = A.matmul x (A.const w) in
      let hs = A.gather_rows h src in
      let hd = A.gather_rows h dst in
      let scores = A.leaky_relu (A.row_sums (A.mul hs hd)) in
      let alpha = A.segment_softmax scores dst in
      let agg = A.scatter_add_rows (A.col_mul hs alpha) dst ~rows:3 in
      A.sum (A.square agg))
    (rand_tensor 25 3 2)

(* Each op's value and adjoint, run by hand with upstream gradient [g],
   against the closure form the loops replaced (values bit for bit,
   including NaN, infinities, signed zeros and denormals).  A fresh
   leaf's gradient is zeros, so the reference adds the adjoint to
   zeros as accumulation does. *)
let test_adjoints_match_closure_forms () =
  let n = Array.length Helpers.specials in
  let x = Tensor.init n n (fun i _ -> Helpers.specials.(i)) in
  let g = Tensor.init n n (fun _ j -> Helpers.specials.(j)) in
  let accumulated d = Tensor.add (Tensor.create d.Tensor.rows d.Tensor.cols) d in
  let check name op ~value ~adjoint =
    let leaf = A.leaf (Tensor.copy x) in
    let y = op leaf in
    Helpers.check_bits (name ^ " value") (value x) y.A.value;
    y.A.grad <- Tensor.copy g;
    y.A.back ();
    Helpers.check_bits (name ^ " adjoint") (accumulated (adjoint x y.A.value)) leaf.A.grad
  in
  check "square" A.square
    ~value:(Tensor.map (fun v -> v *. v))
    ~adjoint:(fun x _ -> Tensor.mul g (Tensor.scale 2.0 x));
  check "leaky_relu" A.leaky_relu
    ~value:(Tensor.map (fun v -> if v > 0.0 then v else 0.2 *. v))
    ~adjoint:(fun x _ -> Tensor.map2 (fun g v -> if v > 0.0 then g else 0.2 *. g) g x);
  check "relu" A.relu
    ~value:(Tensor.map (fun v -> Float.max 0.0 v))
    ~adjoint:(fun x _ -> Tensor.map2 (fun g v -> if v > 0.0 then g else 0.0) g x);
  check "sigmoid" A.sigmoid
    ~value:(Tensor.map (fun v -> 1.0 /. (1.0 +. Stdlib.exp (-.v))))
    ~adjoint:(fun _ y -> Tensor.map2 (fun g y -> g *. y *. (1.0 -. y)) g y);
  check "exp" A.exp
    ~value:(Tensor.map Stdlib.exp)
    ~adjoint:(fun _ e -> Tensor.mul g e);
  check "clamp_max" (A.clamp_max 0.15)
    ~value:(Tensor.map (fun v -> Float.min 0.15 v))
    ~adjoint:(fun x _ -> Tensor.map2 (fun g v -> if v < 0.15 then g else 0.0) g x);
  (* Row sums: upstream is one column. *)
  let leaf = A.leaf (Tensor.copy x) in
  let y = A.row_sums leaf in
  let gcol = Tensor.of_column Helpers.specials in
  y.A.grad <- gcol;
  y.A.back ();
  Helpers.check_bits "row_sums adjoint"
    (accumulated (Tensor.init n n (fun i _ -> Tensor.get gcol i 0)))
    leaf.A.grad;
  (* Segment softmax over a column of specials. *)
  let seg = [| 0; 0; 1; 1; 1; 2; 2; 0; 3; 3 |] in
  let scores = A.leaf (Tensor.of_column Helpers.specials) in
  let y = A.segment_softmax scores seg in
  let up = Tensor.of_column (Array.map (fun v -> -.v) Helpers.specials) in
  y.A.grad <- up;
  y.A.back ();
  let yv = y.A.value in
  let dot = Tensor.segment_sum (Tensor.mul yv up) seg ~segments:4 in
  Helpers.check_bits "segment_softmax adjoint"
    (accumulated
       (Tensor.init n 1 (fun i _ ->
            yv.Tensor.data.(i) *. (up.Tensor.data.(i) -. dot.Tensor.data.(seg.(i))))))
    scores.A.grad

(* An op result gets its gradient buffer only when backward reaches
   it: building [a + b] allocates the value array and no gradient. *)
let test_op_allocates_no_gradient () =
  let n = 100_000 in
  let a = A.leaf (Tensor.create n 1) and b = A.leaf (Tensor.create n 1) in
  let before = Gc.allocated_bytes () in
  let c = A.add a b in
  let bytes = Gc.allocated_bytes () -. before in
  ignore (Sys.opaque_identity c);
  let value_bytes = float_of_int (8 * n) in
  if bytes >= 1.5 *. value_bytes then
    Alcotest.failf "A.add allocated %.0f bytes for a %.0f-byte value" bytes value_bytes

let test_backward_requires_scalar () =
  let x = A.leaf (rand_tensor 26 2 2) in
  Alcotest.check_raises "non-scalar root"
    (Invalid_argument "Autodiff.backward: root must be scalar") (fun () ->
      A.backward x)

let test_linear_shapes () =
  let rng = Rng.create 27 in
  let l = Layers.linear rng ~in_dim:4 ~out_dim:3 in
  let y = Layers.forward_linear l (A.const (rand_tensor 28 5 4)) in
  Alcotest.(check (pair int int)) "output shape" (5, 3) (A.shape y)

let test_mlp_shapes () =
  let rng = Rng.create 29 in
  let m = Layers.mlp rng ~dims:[ 4; 8; 2 ] in
  let y = Layers.forward_mlp m (A.const (rand_tensor 30 3 4)) in
  Alcotest.(check (pair int int)) "output shape" (3, 2) (A.shape y);
  Alcotest.(check int) "param count" ((4 * 8) + 8 + (8 * 2) + 2)
    (Layers.num_parameters (Layers.mlp_params m))

let test_dump_load_roundtrip () =
  let rng = Rng.create 31 in
  let m1 = Layers.mlp rng ~dims:[ 3; 5; 1 ] in
  let m2 = Layers.mlp (Rng.create 99) ~dims:[ 3; 5; 1 ] in
  Layers.load_params (Layers.mlp_params m2) (Layers.dump_params (Layers.mlp_params m1));
  let x = rand_tensor 32 2 3 in
  let y1 = Layers.forward_mlp m1 (A.const x) and y2 = Layers.forward_mlp m2 (A.const x) in
  Alcotest.(check bool) "identical outputs" true (y1.A.value.Tensor.data = y2.A.value.Tensor.data)

let test_segment_softmax_negative_id () =
  let x = A.leaf (rand_tensor 35 3 1) in
  Alcotest.check_raises "negative id"
    (Invalid_argument "Autodiff.segment_softmax: negative segment id") (fun () ->
      ignore (A.segment_softmax x [| 0; -2; 1 |]))

let test_adam_minimises_quadratic () =
  (* Minimise ||x - target||^2. *)
  let target = rand_tensor 33 2 3 in
  let x = A.leaf (Tensor.create 2 3) in
  let opt = Optimizer.adam ~lr:0.05 [ x ] in
  for _ = 1 to 500 do
    let loss = A.sum (A.square (A.sub x (A.const target))) in
    A.backward loss;
    Optimizer.step opt
  done;
  let err = Tensor.frobenius (Tensor.sub x.A.value target) in
  Alcotest.(check bool) "converged" true (err < 0.02)

let test_adam_clipping () =
  (* A gradient far above the 5.0 clipping norm must not produce a
     huge first step. *)
  let x = A.leaf (Tensor.of_array ~rows:1 ~cols:1 [| 0.0 |]) in
  let opt = Optimizer.adam ~lr:0.1 [ x ] in
  let loss = A.scale 1e9 (A.sum x) in
  A.backward loss;
  Optimizer.step opt;
  Alcotest.(check bool) "bounded step" true (Float.abs x.A.value.Tensor.data.(0) <= 0.11)

let test_grad_accumulation_zeroed () =
  let x = A.leaf (rand_tensor 34 1 2) in
  let opt = Optimizer.adam [ x ] in
  let loss = A.sum x in
  A.backward loss;
  Optimizer.step opt;
  Alcotest.(check (float 0.0)) "grads zeroed after step" 0.0 (Tensor.sum x.A.grad)

let suite =
  [ Alcotest.test_case "grad add/mul" `Quick test_grad_add_mul;
    Alcotest.test_case "segment softmax negative id" `Quick test_segment_softmax_negative_id;
    Alcotest.test_case "grad attention composite" `Quick test_grad_composite_attention;
    Alcotest.test_case "backward scalar only" `Quick test_backward_requires_scalar;
    Alcotest.test_case "linear shapes" `Quick test_linear_shapes;
    Alcotest.test_case "mlp shapes" `Quick test_mlp_shapes;
    Alcotest.test_case "dump/load" `Quick test_dump_load_roundtrip;
    Alcotest.test_case "adam quadratic" `Quick test_adam_minimises_quadratic;
    Alcotest.test_case "adam clipping" `Quick test_adam_clipping;
    Alcotest.test_case "grads zeroed" `Quick test_grad_accumulation_zeroed;
    Alcotest.test_case "adjoints match closure forms" `Quick test_adjoints_match_closure_forms;
    Alcotest.test_case "op allocates no gradient" `Quick test_op_allocates_no_gradient ]
