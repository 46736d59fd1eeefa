open Sate_tensor
module A = Sate_nn.Autodiff
module Layers = Sate_nn.Layers
module Rng = Sate_util.Rng
module Allocation = Sate_te.Allocation
module Par = Sate_par.Par

type hyper = {
  attention : bool;
  with_access_relation : bool;
}

let default_hyper = { attention = true; with_access_relation = false }

(* Width d (the paper's 768 scaled to CPU), attention heads, GAT
   blocks per module (R1, R2, R3) and decoder hidden width. *)
let dim = 32
let heads = 2
let layers = 2
let decoder_hidden = 64

type t = {
  hyper : hyper;
  seed : int;
  w_ne1 : A.t; (* satellite embedding init: 1 x d *)
  w_ne2 : A.t; (* path embedding init *)
  w_ne3 : A.t; (* traffic embedding init *)
  r1 : Gat.t array;
  r2_path_to_sat : Gat.t array;
  r2_sat_to_path : Gat.t array;
  r3_path_to_traffic : Gat.t array;
  r3_traffic_to_path : Gat.t array;
  access_traffic_to_sat : Gat.t array;
  decoder : Layers.mlp;
}

let create ?(hyper = default_hyper) ~seed () =
  let rng = Rng.create seed in
  let gats n = Array.init n (fun _ -> Gat.create ~attention:hyper.attention rng ~dim ~heads) in
  { hyper;
    seed;
    w_ne1 = A.leaf (Tensor.xavier rng 1 dim);
    w_ne2 = A.leaf (Tensor.xavier rng 1 dim);
    w_ne3 = A.leaf (Tensor.xavier rng 1 dim);
    r1 = gats layers;
    r2_path_to_sat = gats layers;
    r2_sat_to_path = gats layers;
    r3_path_to_traffic = gats layers;
    r3_traffic_to_path = gats layers;
    access_traffic_to_sat =
      (if hyper.with_access_relation then gats 1 else [||]);
    decoder = Layers.mlp rng ~dims:[ 2 * dim; decoder_hidden; 1 ] }

let hyper t = t.hyper

let params t =
  [ t.w_ne1; t.w_ne2; t.w_ne3 ]
  @ List.concat_map Gat.params (Array.to_list t.r1)
  @ List.concat_map Gat.params (Array.to_list t.r2_path_to_sat)
  @ List.concat_map Gat.params (Array.to_list t.r2_sat_to_path)
  @ List.concat_map Gat.params (Array.to_list t.r3_path_to_traffic)
  @ List.concat_map Gat.params (Array.to_list t.r3_traffic_to_path)
  @ List.concat_map Gat.params (Array.to_list t.access_traffic_to_sat)
  @ Layers.mlp_params t.decoder

let num_parameters t = Layers.num_parameters (params t)

let forward ?(parallel = false) t (g : Te_graph.t) =
  if g.Te_graph.num_paths = 0 then A.const (Tensor.create 0 1)
  else begin
    (* [pair f g] evaluates the two independent per-layer block
       updates, on two pool workers when [parallel] is set.  Results
       land in fixed slots, so forward values never depend on
       scheduling. *)
    let pair f g = if parallel then Par.both f g else (f (), g ()) in
    (* Embedding initialisation (Fig. 7 table). *)
    let x_sat = ref (A.matmul (A.const g.Te_graph.sat_feat) t.w_ne1) in
    let x_path = ref (A.matmul (A.const g.Te_graph.path_feat) t.w_ne2) in
    let x_traffic = ref (A.matmul (A.const g.Te_graph.traffic_feat) t.w_ne3) in
    (* GNN for R1: satellite embeddings over ISLs. *)
    Array.iter
      (fun gat ->
        x_sat :=
          A.add !x_sat
            (Gat.forward ~parallel gat ~x_src:!x_sat ~x_dst:!x_sat
               ~edges:g.Te_graph.r1))
      t.r1;
    (* Ablation: redundant access relation (traffic -> satellite). *)
    (match g.Te_graph.access with
    | Some access_edges ->
        Array.iter
          (fun gat ->
            x_sat :=
              A.add !x_sat
                (Gat.forward ~parallel gat ~x_src:!x_traffic ~x_dst:!x_sat
                   ~edges:access_edges))
          t.access_traffic_to_sat
    | None -> ());
    (* GNN for R2: satellites and paths updated concurrently. *)
    for i = 0 to layers - 1 do
      let sat_in = !x_sat and path_in = !x_path in
      let new_sat, new_path =
        pair
          (fun () ->
            Gat.forward ~parallel t.r2_path_to_sat.(i) ~x_src:path_in
              ~x_dst:sat_in ~edges:g.Te_graph.r2)
          (fun () ->
            Gat.forward ~parallel t.r2_sat_to_path.(i) ~x_src:sat_in
              ~x_dst:path_in ~edges:(Te_graph.reverse g.Te_graph.r2))
      in
      x_sat := A.add sat_in new_sat;
      x_path := A.add path_in new_path
    done;
    (* GNN for R3: paths and traffic demands. *)
    for i = 0 to layers - 1 do
      let path_in = !x_path and traffic_in = !x_traffic in
      let new_traffic, new_path =
        pair
          (fun () ->
            Gat.forward ~parallel t.r3_path_to_traffic.(i) ~x_src:path_in
              ~x_dst:traffic_in ~edges:g.Te_graph.r3)
          (fun () ->
            Gat.forward ~parallel t.r3_traffic_to_path.(i) ~x_src:traffic_in
              ~x_dst:path_in ~edges:(Te_graph.reverse g.Te_graph.r3))
      in
      x_traffic := A.add traffic_in new_traffic;
      x_path := A.add path_in new_path
    done;
    (* Decoder: path embedding || its demand embedding -> ratio. *)
    let demand_emb = A.gather_rows !x_traffic g.Te_graph.path_commodity in
    let z = Layers.forward_mlp t.decoder (A.concat_cols [ !x_path; demand_emb ]) in
    A.sigmoid z
  end

let ratios t inst =
  let g = Te_graph.of_instance ~with_access_relation:t.hyper.with_access_relation inst in
  (* Inference never runs backward, so the scheduling-dependent node
     ids of parallel graph construction are harmless here. *)
  (forward ~parallel:true t g).A.value.Tensor.data

let predict t inst = Allocation.trim inst (Allocation.of_ratios inst (ratios t inst))

(* Save format: the tag line, then marshalled (hyper, seed, weights).
   [load] reads the tag before it unmarshals, so a file of another
   format is rejected instead of read as values of the wrong type.
   Change the tag whenever [hyper] or the architecture changes. *)
let file_tag = "SaTE model v2\n"

let save t path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc file_tag;
      Marshal.to_channel oc (t.hyper, t.seed, Layers.dump_params (params t)) [])

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let tag =
        try really_input_string ic (String.length file_tag) with End_of_file -> ""
      in
      if tag <> file_tag then
        invalid_arg ("Model.load: " ^ path ^ " is not a model file of this version");
      let hyper, seed, weights =
        try (Marshal.from_channel ic : hyper * int * float array)
        with End_of_file | Failure _ ->
          invalid_arg ("Model.load: " ^ path ^ " is truncated or corrupt")
      in
      let t = create ~hyper ~seed () in
      Layers.load_params (params t) weights;
      t)
