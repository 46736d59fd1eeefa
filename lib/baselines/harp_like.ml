open Sate_tensor
module A = Sate_nn.Autodiff
module Layers = Sate_nn.Layers
module Optimizer = Sate_nn.Optimizer
module Rng = Sate_util.Rng
module Model = Sate_gnn.Model
module Te_graph = Sate_gnn.Te_graph
module Gat = Sate_gnn.Gat
module Trainer = Sate_gnn.Trainer
module Loss = Sate_gnn.Loss

type t = {
  base : Model.t;
  lift : Layers.linear; (* ratio -> embedding for the transformer stage *)
  path_attention : Gat.t;
  readout : Layers.linear;
}

let create ?(seed = 13) () =
  let rng = Rng.create (seed + 1000) in
  { base = Model.create ~seed ();
    lift = Layers.linear rng ~in_dim:1 ~out_dim:Model.dim;
    path_attention = Gat.create rng ~dim:Model.dim ~heads:Model.heads;
    readout = Layers.linear rng ~in_dim:Model.dim ~out_dim:1 }

let params t =
  Model.params t.base
  @ Layers.linear_params t.lift
  @ Gat.params t.path_attention
  @ Layers.linear_params t.readout

let num_parameters t = Layers.num_parameters (params t)

(* Edge-path transformer stage: dense attention among paths sharing a
   link.  The pair count grows with path density per link — the
   size-dependent cost the paper attributes to HARP. *)
let max_paths_per_link = 16

let path_pair_edges (g : Te_graph.t) =
  let n_links = Array.length g.Te_graph.link_caps in
  (* The first [max_paths_per_link] paths on each snapshot link, in
     incidence order, in row [l] of [members]. *)
  let count = Array.make n_links 0 in
  let members = Array.make (n_links * max_paths_per_link) 0 in
  Array.iteri
    (fun i p ->
      let l = g.Te_graph.incidence_link.(i) in
      if count.(l) < max_paths_per_link then begin
        members.((l * max_paths_per_link) + count.(l)) <- p;
        count.(l) <- count.(l) + 1
      end)
    g.Te_graph.incidence_path;
  (* Every ordered pair of distinct paths sharing a link, links in
     descending index order. *)
  let iter_pairs f =
    for l = n_links - 1 downto 0 do
      let first = l * max_paths_per_link in
      let last = first + count.(l) - 1 in
      for i = first to last do
        for j = first to last do
          if members.(i) <> members.(j) then f l members.(i) members.(j)
        done
      done
    done
  in
  let m = ref 0 in
  iter_pairs (fun _ _ _ -> incr m);
  let src = Array.make !m 0 and dst = Array.make !m 0 and feat = Tensor.create !m 1 in
  let e = ref 0 in
  iter_pairs (fun l p q ->
      src.(!e) <- p;
      dst.(!e) <- q;
      feat.Tensor.data.(!e) <- g.Te_graph.link_caps.(l) /. Te_graph.capacity_scale;
      incr e);
  { Te_graph.src; dst; feat }

let forward t (g : Te_graph.t) =
  let base_ratios = Model.forward t.base g in
  if g.Te_graph.num_paths = 0 then base_ratios
  else begin
    let x = Layers.forward_linear t.lift base_ratios in
    let edges = path_pair_edges g in
    let x' = A.add x (Gat.forward t.path_attention ~x_src:x ~x_dst:x ~edges) in
    A.sigmoid (Layers.forward_linear t.readout x')
  end

let train ?(epochs = 20) t instances =
  let samples =
    Array.of_list
      (List.map (Trainer.make_sample ~objective:Sate_te.Lp_solver.Min_mlu) instances)
  in
  let opt = Optimizer.adam ~lr:2e-3 (params t) in
  let loss { Trainer.graph = g; labels; _ } =
    if g.Te_graph.num_paths = 0 then None else Some (Loss.mse (forward t g) labels)
  in
  for _ = 1 to epochs do
    ignore (Trainer.epoch opt loss samples)
  done

let ratios t inst = (forward t (Te_graph.of_instance inst)).A.value.Tensor.data
