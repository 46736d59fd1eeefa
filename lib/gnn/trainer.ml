open Sate_tensor
module A = Sate_nn.Autodiff
module Optimizer = Sate_nn.Optimizer
module Rng = Sate_util.Rng

type sample = {
  instance : Sate_te.Instance.t;
  graph : Te_graph.t;
  labels : Tensor.t;
}

let make_sample ?(objective = Sate_te.Lp_solver.Max_throughput) instance =
  let alloc = Sate_te.Lp_solver.solve ~objective instance in
  { instance;
    graph = Te_graph.of_instance instance;
    labels = Loss.label_ratios_of_alloc instance alloc }

type report = { losses : float array }

let epoch opt loss samples =
  let total = ref 0.0 and count = ref 0 in
  Array.iter
    (fun s ->
      match loss s with
      | None -> ()
      | Some l ->
          A.backward l;
          Optimizer.step opt;
          total := !total +. A.scalar_value l;
          incr count)
    samples;
  if !count > 0 then !total /. float_of_int !count else 0.0

(* Seed of the per-epoch sample shuffle. *)
let shuffle_seed = 17

let train ?(epochs = 30) ?(lr = 2e-3) model samples =
  let opt = Optimizer.adam ~lr (Model.params model) in
  let rng = Rng.create shuffle_seed in
  let samples = Array.of_list samples in
  let loss s =
    if s.graph.Te_graph.num_paths = 0 then None
    else
      let pred = Model.forward model s.graph in
      Some (Loss.compute Loss.default_config s.graph ~pred_ratios:pred ~label_ratios:s.labels)
  in
  { losses =
      Array.init epochs (fun _ ->
          Rng.shuffle rng samples;
          epoch opt loss samples) }

let fine_tune ?(epochs = 10) model samples = train ~epochs ~lr:5e-4 model samples

let evaluate model samples =
  let ratios =
    List.map
      (fun s ->
        let alloc = Model.predict model s.instance in
        Sate_te.Allocation.satisfied_ratio s.instance alloc)
      samples
  in
  match ratios with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 ratios /. float_of_int (List.length ratios)
