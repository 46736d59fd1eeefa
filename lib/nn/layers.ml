open Sate_tensor
module Rng = Sate_util.Rng

type linear = { w : Autodiff.t; b : Autodiff.t }

let linear rng ~in_dim ~out_dim =
  { w = Autodiff.leaf (Tensor.xavier rng in_dim out_dim);
    b = Autodiff.leaf (Tensor.create 1 out_dim) }

let forward_linear l x = Autodiff.add_rowvec (Autodiff.matmul x l.w) l.b

let linear_params l = [ l.w; l.b ]

type mlp = linear list

let mlp rng ~dims =
  let rec build = function
    | a :: (b :: _ as rest) -> linear rng ~in_dim:a ~out_dim:b :: build rest
    | [ _ ] | [] -> []
  in
  match dims with
  | _ :: _ :: _ -> build dims
  | _ -> invalid_arg "Layers.mlp: need at least [in; out]"

let forward_mlp layers x =
  let rec go x = function
    | [] -> x
    | [ last ] -> forward_linear last x
    | l :: rest -> go (Autodiff.leaky_relu (forward_linear l x)) rest
  in
  go x layers

let mlp_params layers = List.concat_map linear_params layers

let num_parameters params =
  List.fold_left
    (fun acc (p : Autodiff.t) ->
      acc + (p.Autodiff.value.Tensor.rows * p.Autodiff.value.Tensor.cols))
    0 params

let dump_params params =
  let total = num_parameters params in
  let out = Array.make total 0.0 in
  let off = ref 0 in
  List.iter
    (fun (p : Autodiff.t) ->
      let d = p.Autodiff.value.Tensor.data in
      Array.blit d 0 out !off (Array.length d);
      off := !off + Array.length d)
    params;
  out

let load_params params data =
  let off = ref 0 in
  List.iter
    (fun (p : Autodiff.t) ->
      let d = p.Autodiff.value.Tensor.data in
      if !off + Array.length d > Array.length data then
        invalid_arg "Layers.load_params: data too short";
      Array.blit data !off d 0 (Array.length d);
      off := !off + Array.length d)
    params;
  if !off <> Array.length data then
    invalid_arg "Layers.load_params: data length mismatch"
