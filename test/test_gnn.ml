(* Tests for Sate_gnn: TE graph construction, GAT blocks, the SaTE
   model, loss, and trainer. *)

open Sate_tensor
module A = Sate_nn.Autodiff
module Instance = Sate_te.Instance
module Allocation = Sate_te.Allocation
module Te_graph = Sate_gnn.Te_graph
module Gat = Sate_gnn.Gat
module Model = Sate_gnn.Model
module Loss = Sate_gnn.Loss
module Trainer = Sate_gnn.Trainer
module Rng = Sate_util.Rng

let graph_of inst = Te_graph.of_instance inst

let test_graph_counts () =
  let inst = Helpers.iridium_instance () in
  let g = graph_of inst in
  Alcotest.(check int) "traffic nodes = commodities"
    (Instance.num_commodities inst) g.Te_graph.num_traffic;
  Alcotest.(check int) "path nodes = candidate paths"
    (Instance.num_paths inst) g.Te_graph.num_paths;
  Alcotest.(check int) "sat nodes = snapshot nodes"
    (Sate_topology.Snapshot.num_nodes inst.Instance.snapshot)
    g.Te_graph.num_sats;
  (* R1 has two directed edges per link. *)
  Alcotest.(check int) "r1 edges"
    (2 * Array.length inst.Instance.snapshot.Sate_topology.Snapshot.links)
    (Array.length g.Te_graph.r1.Te_graph.src);
  (* R3 has one edge per path. *)
  Alcotest.(check int) "r3 edges" g.Te_graph.num_paths
    (Array.length g.Te_graph.r3.Te_graph.src)

let test_graph_edge_indices_in_range () =
  let inst = Helpers.iridium_instance () in
  let g = graph_of inst in
  let check_edges (e : Te_graph.edges) n_src n_dst name =
    Array.iter
      (fun s -> Alcotest.(check bool) (name ^ " src range") true (s >= 0 && s < n_src))
      e.Te_graph.src;
    Array.iter
      (fun d -> Alcotest.(check bool) (name ^ " dst range") true (d >= 0 && d < n_dst))
      e.Te_graph.dst
  in
  check_edges g.Te_graph.r1 g.Te_graph.num_sats g.Te_graph.num_sats "r1";
  check_edges g.Te_graph.r2 g.Te_graph.num_paths g.Te_graph.num_sats "r2";
  check_edges g.Te_graph.r3 g.Te_graph.num_paths g.Te_graph.num_traffic "r3"

let test_graph_access_relation_ablation () =
  let inst = Helpers.iridium_instance () in
  let g = Te_graph.of_instance ~with_access_relation:true inst in
  match g.Te_graph.access with
  | Some access ->
      (* Two edges (src and dst satellites) per commodity. *)
      Alcotest.(check int) "access edges" (2 * g.Te_graph.num_traffic)
        (Array.length access.Te_graph.src)
  | None -> Alcotest.fail "expected access relation"

let test_graph_memory_smaller_than_dense () =
  let inst = Helpers.iridium_instance () in
  let g = graph_of inst in
  (* Nodes and edges grow with active commodities and their paths,
     not with the n^2 (1 + k) dense pair grid a fixed-size model
     takes as input. *)
  let edges (e : Te_graph.edges) = Array.length e.Te_graph.src in
  let elements =
    g.Te_graph.num_sats + g.Te_graph.num_paths + g.Te_graph.num_traffic
    + edges g.Te_graph.r1 + edges g.Te_graph.r2 + edges g.Te_graph.r3
  in
  Alcotest.(check bool) "pruned graph smaller than the dense pair grid" true
    (elements < 66 * 66 * (1 + 3))

(* A light-load instance: few flows, so some live links carry no
   candidate path. *)
let sparse_instance () = Helpers.iridium_instance ~lambda:1.0 ()

let unused_links (inst : Instance.t) =
  let links = inst.Instance.snapshot.Sate_topology.Snapshot.links in
  let used = Array.make (Array.length links) false in
  Array.iter
    (fun (c : Instance.commodity) ->
      Array.iter (Array.iter (fun l -> used.(l) <- true)) c.Instance.path_links)
    inst.Instance.commodities;
  Array.fold_left (fun n u -> if u then n else n + 1) 0 used

(* The loss incidence names links by their snapshot index: it is the
   instance's path_links flattened in path-node order, and link_caps
   covers every snapshot link, used or not. *)
let test_graph_incidence_is_path_links () =
  let inst = sparse_instance () in
  Alcotest.(check bool) "some link carries no path" true (unused_links inst > 0);
  let g = graph_of inst in
  let entries =
    List.concat
      (List.mapi
         (fun p links -> List.map (fun l -> (p, l)) (Array.to_list links))
         (List.concat_map
            (fun (c : Instance.commodity) -> Array.to_list c.Instance.path_links)
            (Array.to_list inst.Instance.commodities)))
  in
  Alcotest.(check (list (pair int int))) "incidence = flattened path_links" entries
    (List.combine (Array.to_list g.Te_graph.incidence_path)
       (Array.to_list g.Te_graph.incidence_link));
  let links = inst.Instance.snapshot.Sate_topology.Snapshot.links in
  Alcotest.(check int) "one capacity per snapshot link" (Array.length links)
    (Array.length g.Te_graph.link_caps);
  Array.iteri
    (fun l (link : Sate_topology.Link.t) ->
      Alcotest.(check (float 0.0)) "capacity of link l" link.Sate_topology.Link.capacity_mbps
        g.Te_graph.link_caps.(l))
    links

(* Links no path uses add zero rows to the loss: its value and its
   gradient are bit-equal to the same graph with the link arrays
   compacted to the used links. *)
let test_loss_ignores_unused_links () =
  let inst = sparse_instance () in
  Alcotest.(check bool) "some link carries no path" true (unused_links inst > 0);
  let g = graph_of inst in
  let used = List.sort_uniq compare (Array.to_list g.Te_graph.incidence_link) in
  let position = Array.make (Array.length g.Te_graph.link_caps) (-1) in
  List.iteri (fun i l -> position.(l) <- i) used;
  let compacted =
    { g with
      Te_graph.incidence_link = Array.map (fun l -> position.(l)) g.Te_graph.incidence_link;
      link_caps = Array.of_list (List.map (fun l -> g.Te_graph.link_caps.(l)) used) }
  in
  (* Ratios far above 1 overload links, so the penalty term counts. *)
  let ratios = Tensor.init g.Te_graph.num_paths 1 (fun i _ -> float_of_int (i mod 7) *. 40.0) in
  let labels = Tensor.init g.Te_graph.num_paths 1 (fun i _ -> float_of_int (i mod 3) /. 2.0) in
  let run graph =
    let pred = A.leaf (Tensor.copy ratios) in
    let loss = Loss.compute Loss.default_config graph ~pred_ratios:pred ~label_ratios:labels in
    A.backward loss;
    (loss.A.value, pred.A.grad)
  in
  let value, grad = run g and value', grad' = run compacted in
  Helpers.check_bits "loss value" value' value;
  Helpers.check_bits "pred gradient" grad' grad

let test_gat_shapes () =
  let rng = Rng.create 1 in
  let gat = Gat.create rng ~dim:8 ~heads:2 in
  let x_src = A.const (Tensor.xavier (Rng.create 2) 5 8) in
  let x_dst = A.const (Tensor.xavier (Rng.create 3) 4 8) in
  let edges =
    { Te_graph.src = [| 0; 1; 2 |];
      dst = [| 0; 1; 3 |];
      feat = Tensor.of_column [| 1.0; 0.5; 0.2 |] }
  in
  let y = Gat.forward gat ~x_src ~x_dst ~edges in
  Alcotest.(check (pair int int)) "dst-shaped output" (4, 8) (A.shape y)

let test_gat_empty_edges () =
  let rng = Rng.create 4 in
  let gat = Gat.create rng ~dim:8 ~heads:2 in
  let x = A.const (Tensor.xavier (Rng.create 5) 3 8) in
  let edges = { Te_graph.src = [||]; dst = [||]; feat = Tensor.create 0 1 } in
  let y = Gat.forward gat ~x_src:x ~x_dst:x ~edges in
  Alcotest.(check (pair int int)) "self-only output" (3, 8) (A.shape y)

let test_gat_dim_heads_validation () =
  Alcotest.check_raises "dim % heads" (Invalid_argument "Gat.create: dim must divide by heads")
    (fun () -> ignore (Gat.create (Rng.create 1) ~dim:9 ~heads:2))

(* Gat.forward scores each edge from per-node projections gathered as
   scalars.  The reference below is the gather-then-project form of
   Eq. 7, from Tensor ops and the layer's own parameters; the two must
   agree bit for bit.  The graph repeats destinations 1 and 3 and
   leaves destination 4 without edges. *)
let reference_gat gat ~attention ~x_src ~x_dst ~(edges : Te_graph.edges) =
  let value (p : A.t) = p.A.value in
  let src = edges.Te_graph.src and dst = edges.Te_graph.dst in
  let leaky = Tensor.leaky_relu ~alpha:0.2 in
  let rec heads = function
    | w_src :: w_dst :: w_edge :: a_src :: a_dst :: a_edge :: rest ->
        let hs = Tensor.matmul x_src (value w_src) in
        let hd = Tensor.matmul x_dst (value w_dst) in
        let he = Tensor.matmul edges.Te_graph.feat (value w_edge) in
        let hs_e = Tensor.gather_rows hs src and hd_e = Tensor.gather_rows hd dst in
        let scores =
          leaky
            (Tensor.add
               (Tensor.add (Tensor.matmul hd_e (value a_dst)) (Tensor.matmul hs_e (value a_src)))
               (Tensor.matmul he (value a_edge)))
        in
        let alpha =
          if attention then Tensor.segment_softmax scores dst
          else Tensor.segment_softmax (Tensor.create (Array.length dst) 1) dst
        in
        let msg = Tensor.col_mul (Tensor.add hs_e he) alpha in
        Tensor.scatter_add_rows msg dst ~rows:x_dst.Tensor.rows :: heads rest
    | _ -> []
  in
  match Gat.params gat with
  | w_self :: per_head ->
      let self = Tensor.matmul x_dst (value w_self) in
      leaky (Tensor.add self (Tensor.concat_cols (heads per_head)))
  | [] -> Alcotest.fail "Gat.params is empty"

let test_gat_matches_reference () =
  let rng = Rng.create 8 in
  let x_src = Tensor.xavier rng 6 8 and x_dst = Tensor.xavier rng 5 8 in
  let edges =
    { Te_graph.src = [| 0; 1; 2; 3; 4; 5; 1; 0 |];
      dst = [| 1; 3; 1; 0; 3; 1; 2; 3 |];
      feat = Tensor.of_column [| 0.3; -1.2; 0.5; 2.0; 0.0; -0.7; 1.1; 0.9 |] }
  in
  List.iter
    (fun attention ->
      let gat = Gat.create ~attention rng ~dim:8 ~heads:2 in
      let expected = reference_gat gat ~attention ~x_src ~x_dst ~edges in
      List.iter
        (fun parallel ->
          let y = Gat.forward ~parallel gat ~x_src:(A.const x_src) ~x_dst:(A.const x_dst) ~edges in
          Helpers.check_bits
            (Printf.sprintf "attention=%b parallel=%b" attention parallel)
            expected y.A.value)
        [ false; true ])
    [ true; false ]

(* The per-head Autodiff chain Gat.forward ran before its per-edge
   work was fused into Autodiff.edge_scores and edge_aggregate, built
   from the layer's own parameters.  Heads are built in order, after
   the self term, as Gat.forward does. *)
let unfused_gat gat ~attention ~x_src ~x_dst ~(edges : Te_graph.edges) =
  let { Te_graph.src; dst; feat } = edges in
  let n_dst = fst (A.shape x_dst) in
  let feat_node = A.const feat in
  let rec heads = function
    | w_src :: w_dst :: w_edge :: a_src :: a_dst :: a_edge :: rest ->
        let hs = A.matmul x_src w_src in
        let hd = A.matmul x_dst w_dst in
        let he = A.matmul feat_node w_edge in
        let hs_e = A.gather_rows hs src in
        let scores =
          A.leaky_relu
            (A.add
               (A.add
                  (A.gather_rows (A.matmul hd a_dst) dst)
                  (A.gather_rows (A.matmul hs a_src) src))
               (A.matmul he a_edge))
        in
        let alpha =
          if attention then A.segment_softmax scores dst
          else A.const (Tensor.segment_softmax (Tensor.create (Array.length dst) 1) dst)
        in
        let msg = A.col_mul (A.add hs_e he) alpha in
        let head = A.scatter_add_rows msg dst ~rows:n_dst in
        head :: heads rest
    | _ -> []
  in
  match Gat.params gat with
  | w_self :: per_head ->
      let self = A.matmul x_dst w_self in
      A.leaky_relu (A.add self (A.concat_cols (heads per_head)))
  | [] -> Alcotest.fail "Gat.params is empty"

(* [forward]'s output and the gradients of sum (y^2) with respect to
   x_src, x_dst and every layer parameter, from fresh inputs and zeroed
   parameter gradients. *)
let output_and_grads gat forward ~x_src ~x_dst =
  let params = Gat.params gat in
  List.iter
    (fun (p : A.t) ->
      let rows, cols = A.shape p in
      p.A.grad <- Tensor.create rows cols)
    params;
  let x_src = A.leaf (Tensor.copy x_src) and x_dst = A.leaf (Tensor.copy x_dst) in
  let y = forward ~x_src ~x_dst in
  A.backward (A.sum (A.square y));
  ("y", y.A.value) :: ("x_src", x_src.A.grad) :: ("x_dst", x_dst.A.grad)
  :: List.mapi (fun i (p : A.t) -> (Printf.sprintf "param%d" i, p.A.grad)) params

(* Destinations 1 and 3 repeat, 4 has no edges, and [feat] holds both
   signed zeros.  The second case adds two NaNs with different
   payloads: in x_src row 5 and in the feature of edge 5 (5 -> 2, the
   first edge into 2).  Their sum keeps the payload of its first
   operand, so adding [he +. hs] instead of [hs +. he] changes the
   bits of y's row 2. *)
let test_gat_gradients_match_unfused () =
  let rng = Rng.create 9 in
  let n_src = 6 and n_dst = 5 and dim = 8 in
  let src = [| 0; 1; 2; 3; 4; 5; 1; 0; 2; 5 |]
  and dst = [| 1; 3; 1; 0; 3; 2; 2; 3; 0; 1 |] in
  let feat = [| 0.3; -0.0; 0.5; 0.0; -1.2; 0.8; 1.1; -0.0; 0.9; 0.0 |] in
  let x_src = Tensor.xavier rng n_src dim and x_dst = Tensor.xavier rng n_dst dim in
  let nan_a = Int64.float_of_bits 0x7FF8_0000_0000_0A0AL
  and nan_b = Int64.float_of_bits 0xFFF8_0000_0000_0B0BL in
  let x_src_nan = Tensor.copy x_src and feat_nan = Array.copy feat in
  Tensor.set x_src_nan 5 3 nan_a;
  feat_nan.(5) <- nan_b;
  List.iter
    (fun (case, x_src, feat) ->
      let edges = { Te_graph.src; dst; feat = Tensor.of_column feat } in
      List.iter
        (fun attention ->
          let gat = Gat.create ~attention rng ~dim ~heads:2 in
          let expected =
            output_and_grads gat (unfused_gat gat ~attention ~edges) ~x_src ~x_dst
          in
          let actual =
            output_and_grads gat
              (fun ~x_src ~x_dst -> Gat.forward gat ~x_src ~x_dst ~edges)
              ~x_src ~x_dst
          in
          List.iter2
            (fun (name, e) (_, a) ->
              Helpers.check_bits
                (Printf.sprintf "%s attention=%b %s" case attention name)
                e a)
            expected actual)
        [ true; false ])
    [ ("finite", x_src, feat); ("nan payloads", x_src_nan, feat_nan) ]

(* An R2-shaped forward (396 -> 3,300 nodes, 20,000 edges): per edge
   and head the fused layer keeps he's 16 words and three E x 1
   tensors (pe, scores, alpha), about 19 words; the unfused chain
   allocated about 71.  The node-sized terms (projections, head
   outputs, concatenation, activations) are about 7 words per node
   per feature; 8 are allowed. *)
let test_gat_forward_allocation () =
  let rng = Rng.create 31 in
  let dim = 32 and heads = 2 and n_src = 396 and n_dst = 3300 and e = 20_000 in
  let gat = Gat.create rng ~dim ~heads in
  let x_src = A.const (Tensor.xavier rng n_src dim) in
  let x_dst = A.const (Tensor.xavier rng n_dst dim) in
  let edges =
    { Te_graph.src = Array.init e (fun i -> (i * 7) mod n_src);
      dst = Array.init e (fun i -> (i * 13) mod n_dst);
      feat = Tensor.xavier rng e 1 }
  in
  let bound = float_of_int ((24 * e * heads) + (8 * dim * (n_src + n_dst))) in
  let fused = Helpers.words_allocated (fun () -> Gat.forward gat ~x_src ~x_dst ~edges) in
  let unfused =
    Helpers.words_allocated (fun () -> unfused_gat gat ~attention:true ~x_src ~x_dst ~edges)
  in
  if fused >= bound then
    Alcotest.failf "Gat.forward allocated %.0f words (bound %.0f)" fused bound;
  (* The guard can tell the two apart. *)
  if unfused < bound then
    Alcotest.failf "unfused chain allocated only %.0f words (bound %.0f)" unfused bound

let test_model_forward_range () =
  let inst = Helpers.iridium_instance () in
  let g = graph_of inst in
  let model = Model.create ~seed:1 () in
  let y = Model.forward model g in
  Alcotest.(check (pair int int)) "one ratio per path" (g.Te_graph.num_paths, 1) (A.shape y);
  Array.iter
    (fun v -> Alcotest.(check bool) "ratio in (0,1)" true (v > 0.0 && v < 1.0))
    y.A.value.Tensor.data

let test_model_deterministic () =
  let inst = Helpers.iridium_instance () in
  let g = graph_of inst in
  let m1 = Model.create ~seed:7 () and m2 = Model.create ~seed:7 () in
  let y1 = Model.forward m1 g and y2 = Model.forward m2 g in
  Alcotest.(check bool) "same seed same output" true
    (y1.A.value.Tensor.data = y2.A.value.Tensor.data)

let test_model_predict_feasible () =
  let inst = Helpers.congested_instance () in
  let model = Model.create ~seed:2 () in
  let alloc = Model.predict model inst in
  Alcotest.(check bool) "prediction feasible after trim" true
    (Allocation.is_feasible inst alloc)

let test_model_predict_is_trimmed_ratios () =
  let inst = Helpers.congested_instance () in
  let model = Model.create ~seed:2 () in
  Alcotest.(check bool) "predict = trim (of_ratios ratios)" true
    (Model.predict model inst
    = Allocation.trim inst (Allocation.of_ratios inst (Model.ratios model inst)))

let test_model_save_load () =
  let inst = Helpers.iridium_instance () in
  let g = graph_of inst in
  let model = Model.create ~seed:3 () in
  let path = Filename.temp_file "sate_model" ".bin" in
  Model.save model path;
  let restored = Model.load path in
  Sys.remove path;
  let y1 = Model.forward model g and y2 = Model.forward restored g in
  Alcotest.(check bool) "identical after reload" true
    (y1.A.value.Tensor.data = y2.A.value.Tensor.data);
  Alcotest.(check int) "same parameter count" (Model.num_parameters model)
    (Model.num_parameters restored)

(* A file without the current tag is refused before it is
   unmarshalled: the previous format (marshalled (hyper, seed,
   weights) with the 8-field hyper record, written here as the tuple
   of the same shape), a file that holds no model, an empty file. *)
let test_model_load_rejects_other_files () =
  let weights = Sate_nn.Layers.dump_params (Model.params (Model.create ~seed:3 ())) in
  let rejected what write =
    let path = Filename.temp_file "sate_model" ".bin" in
    let oc = open_out_bin path in
    write oc;
    close_out oc;
    let outcome =
      match Model.load path with
      | _ -> "loaded"
      | exception Invalid_argument msg -> msg
      | exception e -> Printexc.to_string e
    in
    Sys.remove path;
    Alcotest.(check bool) (what ^ ": " ^ outcome) true
      (String.starts_with ~prefix:"Model.load: " outcome)
  in
  rejected "previous format" (fun oc ->
      Marshal.to_channel oc ((32, 2, 2, 2, 2, 64, true, false), 3, weights) []);
  rejected "not a model" (fun oc -> output_string oc "weights: 0.1 0.2 0.3\n");
  rejected "empty file" ignore;
  (* The right tag, then marshalled data cut short. *)
  let saved =
    let path = Filename.temp_file "sate_model" ".bin" in
    Model.save (Model.create ~seed:3 ()) path;
    let data = In_channel.with_open_bin path In_channel.input_all in
    Sys.remove path;
    data
  in
  rejected "cut short" (fun oc -> output_string oc (String.sub saved 0 (String.length saved / 2)))

let test_loss_decreases_with_training () =
  let samples = List.map Trainer.make_sample (Helpers.instance_series ~count:3 ()) in
  let model = Model.create ~seed:4 () in
  let report = Trainer.train ~epochs:8 model samples in
  Alcotest.(check int) "epochs" 8 (Array.length report.Trainer.losses);
  let first = report.Trainer.losses.(0) in
  let last = report.Trainer.losses.(7) in
  Alcotest.(check bool)
    (Printf.sprintf "loss decreased (%.4f -> %.4f)" first last)
    true (last < first)

let test_training_improves_over_untrained () =
  let samples = List.map Trainer.make_sample (Helpers.instance_series ~count:3 ()) in
  let untrained = Model.create ~seed:5 () in
  let before = Trainer.evaluate untrained samples in
  let trained = Model.create ~seed:5 () in
  ignore (Trainer.train ~epochs:15 trained samples);
  let after = Trainer.evaluate trained samples in
  Alcotest.(check bool)
    (Printf.sprintf "satisfied improved (%.3f -> %.3f)" before after)
    true (after > before)

(* An epoch skips a sample without paths: no step, and no share in
   the mean loss. *)
let test_epoch_skips_pathless_samples () =
  let a, b =
    match List.map Trainer.make_sample (Helpers.instance_series ~count:2 ()) with
    | [ a; b ] -> (a, b)
    | _ -> assert false
  in
  let empty = { a.Trainer.instance with Instance.commodities = [||] } in
  let pathless =
    { Trainer.instance = empty; graph = Te_graph.of_instance empty; labels = Tensor.create 0 1 }
  in
  let bits xs = List.map Int64.bits_of_float xs in
  let run samples =
    let model = Model.create ~seed:6 () in
    let opt = Sate_nn.Optimizer.adam ~lr:2e-3 (Model.params model) in
    let loss (s : Trainer.sample) =
      if s.Trainer.graph.Te_graph.num_paths = 0 then None
      else
        let pred = Model.forward model s.Trainer.graph in
        Some
          (Loss.compute Loss.default_config s.Trainer.graph ~pred_ratios:pred
             ~label_ratios:s.Trainer.labels)
    in
    let losses = List.init 3 (fun _ -> Trainer.epoch opt loss samples) in
    let weights =
      List.concat_map (fun (p : A.t) -> Array.to_list p.A.value.Tensor.data) (Model.params model)
    in
    (bits losses, bits weights)
  in
  let losses, weights = run [| a; pathless; b |] in
  let losses', weights' = run [| a; b |] in
  Alcotest.(check (list int64)) "same losses" losses' losses;
  Alcotest.(check (list int64)) "same weights" weights' weights;
  let none, untouched = run [| pathless |] in
  Alcotest.(check (list int64)) "mean of no sample" (bits [ 0.0; 0.0; 0.0 ]) none;
  Alcotest.(check (list int64)) "no step" (snd (run [||])) untouched

let test_loss_penalty_positive_on_overload () =
  let inst = Helpers.congested_instance () in
  let g = graph_of inst in
  (* All-ones ratios overload links; loss must exceed the pure
     supervised+flow term of a zero allocation. *)
  let ones = A.const (Tensor.full g.Te_graph.num_paths 1 1.0) in
  let zeros = A.const (Tensor.create g.Te_graph.num_paths 1) in
  let labels = Tensor.create g.Te_graph.num_paths 1 in
  let l_ones = A.scalar_value (Loss.compute Loss.default_config g ~pred_ratios:ones ~label_ratios:labels) in
  let l_zero = A.scalar_value (Loss.compute Loss.default_config g ~pred_ratios:zeros ~label_ratios:labels) in
  Alcotest.(check bool) "overload penalised" true (Float.is_finite l_ones && Float.is_finite l_zero)

let test_label_ratios () =
  let inst = Helpers.iridium_instance () in
  let lp = Sate_te.Lp_solver.solve inst in
  let labels = Loss.label_ratios_of_alloc inst lp in
  Alcotest.(check int) "one label per path" (Instance.num_paths inst) labels.Tensor.rows;
  Array.iter
    (fun v -> Alcotest.(check bool) "ratio in [0,1]" true (v >= -1e-9 && v <= 1.0 +. 1e-6))
    labels.Tensor.data

let test_mean_aggregation_ablation () =
  let inst = Helpers.iridium_instance () in
  let g = graph_of inst in
  let hyper = { Model.default_hyper with Model.attention = false } in
  let model = Model.create ~hyper ~seed:6 () in
  let y = Model.forward model g in
  Alcotest.(check (pair int int)) "mean aggregation works" (g.Te_graph.num_paths, 1) (A.shape y)

let suite =
  [ Alcotest.test_case "graph counts" `Quick test_graph_counts;
    Alcotest.test_case "edge indices in range" `Quick test_graph_edge_indices_in_range;
    Alcotest.test_case "access relation ablation" `Quick test_graph_access_relation_ablation;
    Alcotest.test_case "graph memory" `Quick test_graph_memory_smaller_than_dense;
    Alcotest.test_case "incidence is path_links" `Quick test_graph_incidence_is_path_links;
    Alcotest.test_case "loss ignores unused links" `Quick test_loss_ignores_unused_links;
    Alcotest.test_case "gat shapes" `Quick test_gat_shapes;
    Alcotest.test_case "gat empty edges" `Quick test_gat_empty_edges;
    Alcotest.test_case "gat validation" `Quick test_gat_dim_heads_validation;
    Alcotest.test_case "forward range" `Quick test_model_forward_range;
    Alcotest.test_case "model deterministic" `Quick test_model_deterministic;
    Alcotest.test_case "predict feasible" `Quick test_model_predict_feasible;
    Alcotest.test_case "save/load" `Quick test_model_save_load;
    Alcotest.test_case "loss decreases" `Slow test_loss_decreases_with_training;
    Alcotest.test_case "training improves" `Slow test_training_improves_over_untrained;
    Alcotest.test_case "epoch skips pathless samples" `Quick test_epoch_skips_pathless_samples;
    Alcotest.test_case "loss finite on overload" `Quick test_loss_penalty_positive_on_overload;
    Alcotest.test_case "label ratios" `Quick test_label_ratios;
    Alcotest.test_case "mean aggregation" `Quick test_mean_aggregation_ablation;
    Alcotest.test_case "gat matches gather-then-project" `Quick test_gat_matches_reference;
    Alcotest.test_case "gat gradients match unfused chain" `Quick
      test_gat_gradients_match_unfused;
    Alcotest.test_case "gat forward allocation" `Quick test_gat_forward_allocation;
    Alcotest.test_case "load rejects other files" `Quick test_model_load_rejects_other_files;
    Alcotest.test_case "predict is trimmed ratios" `Quick test_model_predict_is_trimmed_ratios ]
