open Sate_tensor

type t = {
  params : Autodiff.t list;
  m : Tensor.t list;
  v : Tensor.t list;
  lr : float;
  mutable step_count : int;
}

let beta1 = 0.9

let beta2 = 0.999

let eps = 1e-8

(* Global-norm clipping threshold. *)
let clip_norm = 5.0

let adam ?(lr = 1e-3) params =
  let zero_like (p : Autodiff.t) =
    Tensor.create p.Autodiff.value.Tensor.rows p.Autodiff.value.Tensor.cols
  in
  { params; m = List.map zero_like params; v = List.map zero_like params; lr; step_count = 0 }

let zero_grads t =
  List.iter
    (fun (p : Autodiff.t) ->
      p.Autodiff.grad <-
        Tensor.create p.Autodiff.value.Tensor.rows p.Autodiff.value.Tensor.cols)
    t.params

let step t =
  t.step_count <- t.step_count + 1;
  (* Global-norm clipping across all parameters. *)
  let total_sq =
    List.fold_left
      (fun acc (p : Autodiff.t) ->
        let f = Tensor.frobenius p.Autodiff.grad in
        acc +. (f *. f))
      0.0 t.params
  in
  let norm = sqrt total_sq in
  let clip = if norm > clip_norm then clip_norm /. norm else 1.0 in
  let bc1 = 1.0 -. (beta1 ** float_of_int t.step_count) in
  let bc2 = 1.0 -. (beta2 ** float_of_int t.step_count) in
  List.iter2
    (fun (p : Autodiff.t) (m, v) ->
      let g = p.Autodiff.grad.Tensor.data in
      let pd = p.Autodiff.value.Tensor.data in
      let md = m.Tensor.data and vd = v.Tensor.data in
      for i = 0 to Array.length pd - 1 do
        let gi = g.(i) *. clip in
        md.(i) <- (beta1 *. md.(i)) +. ((1.0 -. beta1) *. gi);
        vd.(i) <- (beta2 *. vd.(i)) +. ((1.0 -. beta2) *. gi *. gi);
        let mhat = md.(i) /. bc1 and vhat = vd.(i) /. bc2 in
        pd.(i) <- pd.(i) -. (t.lr *. mhat /. (sqrt vhat +. eps))
      done)
    t.params
    (List.combine t.m t.v);
  zero_grads t
