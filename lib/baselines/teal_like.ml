open Sate_tensor
module A = Sate_nn.Autodiff
module Layers = Sate_nn.Layers
module Optimizer = Sate_nn.Optimizer
module Loss = Sate_gnn.Loss
module Trainer = Sate_gnn.Trainer
module Rng = Sate_util.Rng
module Instance = Sate_te.Instance

type t = {
  num_sats : int;
  k : int;
  encoder : Layers.linear;
  allocator : Layers.linear;
}

(* Encoder width, scaled to CPU budgets. *)
let hidden = 8

let create ~num_sats ~k () =
  let rng = Rng.create 5 in
  let in_dim = num_sats * num_sats * (1 + k) in
  let out_dim = num_sats * num_sats * k in
  { num_sats;
    k;
    encoder = Layers.linear rng ~in_dim ~out_dim:hidden;
    allocator = Layers.linear rng ~in_dim:hidden ~out_dim }

let params t = Layers.linear_params t.encoder @ Layers.linear_params t.allocator

let num_parameters t = Layers.num_parameters (params t)

let pair_index t src dst = (src * t.num_sats) + dst

(* Dense input: per ordered pair, demand followed by k path-length
   features.  This is the fixed-size structure that blocks pruning. *)
let dense_input t (inst : Instance.t) =
  let stride = 1 + t.k in
  let input = Tensor.create 1 (t.num_sats * t.num_sats * stride) in
  Array.iter
    (fun (c : Instance.commodity) ->
      let base = pair_index t c.Instance.src c.Instance.dst * stride in
      input.Tensor.data.(base) <- c.Instance.demand_mbps /. 100.0;
      Array.iteri
        (fun p path ->
          if p < t.k then
            input.Tensor.data.(base + 1 + p) <-
              float_of_int (Sate_paths.Path.hops path) /. 10.0)
        c.Instance.paths)
    inst.Instance.commodities;
  input

(* Slot of each path, in the instance's flat path order, in the dense
   [n^2 x k] output grid: [pair_index * k + p], or -1 when [p >= k]
   (no slot: ratio 0). *)
let slots t (inst : Instance.t) =
  Array.concat
    (Array.to_list
       (Array.map
          (fun (c : Instance.commodity) ->
            let base = pair_index t c.Instance.src c.Instance.dst * t.k in
            Array.mapi (fun p _ -> if p < t.k then base + p else -1) c.Instance.paths)
          inst.Instance.commodities))

let dense_labels t inst =
  let labels = Loss.label_ratios_of_alloc inst (Sate_te.Lp_solver.solve inst) in
  let out = Tensor.create 1 (t.num_sats * t.num_sats * t.k) in
  Array.iteri
    (fun i s -> if s >= 0 then out.Tensor.data.(s) <- labels.Tensor.data.(i))
    (slots t inst);
  out

let forward t input =
  let h = A.leaky_relu (Layers.forward_linear t.encoder input) in
  A.sigmoid (Layers.forward_linear t.allocator h)

let check_scale t (inst : Instance.t) =
  let n = inst.Instance.snapshot.Sate_topology.Snapshot.num_sats in
  if n <> t.num_sats then
    invalid_arg
      (Printf.sprintf
         "Teal_like: model trained for %d satellites applied to %d (fixed-size DNN \
          cannot transfer)"
         t.num_sats n)

let train ?(epochs = 20) t instances =
  List.iter (check_scale t) instances;
  let samples =
    Array.of_list (List.map (fun inst -> (dense_input t inst, dense_labels t inst)) instances)
  in
  let opt = Optimizer.adam ~lr:2e-3 (params t) in
  let loss (input, label) = Some (Loss.mse (forward t (A.const input)) label) in
  for _ = 1 to epochs do
    ignore (Trainer.epoch opt loss samples)
  done

let ratios t inst =
  check_scale t inst;
  let pred = (forward t (A.const (dense_input t inst))).A.value.Tensor.data in
  Array.map (fun s -> if s < 0 then 0.0 else pred.(s)) (slots t inst)
