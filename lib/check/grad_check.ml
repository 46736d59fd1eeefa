open Sate_tensor
module A = Sate_nn.Autodiff
module Rng = Sate_util.Rng
module Gat = Sate_gnn.Gat
module Te_graph = Sate_gnn.Te_graph

type result = {
  name : string;
  max_rel_err : float;
  worst_index : int;
  checked : int;
  passed : bool;
}

let default_tol = 1e-4

let result_to_string r =
  Printf.sprintf "%s: %s (max rel err %.3g at %d over %d coords)" r.name
    (if r.passed then "ok" else "FAIL")
    r.max_rel_err r.worst_index r.checked

let failures = List.filter (fun r -> not r.passed)

(* Central-difference step. *)
let eps = 1e-5

(* Gradient of the scalar [forward ()] wrt the leaf [param], whose
   value is perturbed in place (and restored); [forward] must rebuild
   the graph from the current leaf values on every call. *)
let check_inplace ~tol ~name ~param ~forward =
  let rows, cols = A.shape param in
  (* Zero only the checked leaf: [forward] builds a fresh graph, so
     stale gradients on other leaves never reach this one. *)
  param.A.grad <- Tensor.create rows cols;
  A.backward (forward ());
  let analytic = Tensor.copy param.A.grad in
  let data = param.A.value.Tensor.data in
  let max_rel = ref 0.0 and worst = ref (-1) in
  Array.iteri
    (fun i orig ->
      data.(i) <- orig +. eps;
      let up = A.scalar_value (forward ()) in
      data.(i) <- orig -. eps;
      let down = A.scalar_value (forward ()) in
      data.(i) <- orig;
      let numeric = (up -. down) /. (2.0 *. eps) in
      let a = analytic.Tensor.data.(i) in
      let rel =
        Float.abs (a -. numeric)
        /. Float.max 1.0 (Float.max (Float.abs a) (Float.abs numeric))
      in
      if rel > !max_rel then begin
        max_rel := rel;
        worst := i
      end)
    (Array.copy data);
  { name;
    max_rel_err = !max_rel;
    worst_index = !worst;
    checked = Array.length data;
    passed = !max_rel <= tol }

let check ~name ~build x0 =
  let leaf = A.leaf (Tensor.copy x0) in
  check_inplace ~tol:default_tol ~name ~param:leaf ~forward:(fun () -> build leaf)

let rand rng rows cols =
  Tensor.init rows cols (fun _ _ -> Rng.uniform rng (-1.0) 1.0)

(* Magnitude in [0.2, 1.0) with random sign: keeps every coordinate at
   least 0.05 away from the kinks used below (0 for relu/leaky_relu,
   0.15 for clamp_max), where central differences are invalid. *)
let rand_away rng rows cols =
  Tensor.init rows cols (fun _ _ ->
      let v = Rng.uniform rng 0.2 1.0 in
      if Rng.bool rng then v else -.v)

let all_ops ?(seed = 7) () =
  let rng = Rng.create seed in
  let w32 = rand rng 3 2 in
  let w23 = rand rng 2 3 in
  let m43 = rand rng 4 3 in
  let v41 = rand rng 4 1 in
  let v14 = rand rng 1 4 in
  let v13 = rand rng 1 3 in
  let c51 = rand rng 5 1 in
  let sq x = A.sum (A.square x) in
  let fixed x0 _ = Tensor.copy x0 in
  (* Each case draws its input from its own generator, seeded by the
     case's name, so adding or removing a case leaves every other
     case's input as it was; [fixed] cases reuse a shared tensor. *)
  let cases =
    [ ("add", (fun x -> sq (A.add x (A.const w32))), fun r -> rand r 3 2);
      ("sub", (fun x -> sq (A.sub x (A.const w32))), fun r -> rand r 3 2);
      ("mul", (fun x -> sq (A.mul x (A.const w32))), fun r -> rand r 3 2);
      ("scale", (fun x -> sq (A.scale 1.7 x)), fun r -> rand r 3 2);
      ("matmul-left", (fun x -> sq (A.matmul x (A.const w23))), fun r -> rand r 3 2);
      ("matmul-right", (fun x -> sq (A.matmul (A.const w32) x)), fun r -> rand r 2 3);
      ("square", (fun x -> A.sum (A.square x)), fun r -> rand r 3 3);
      ("leaky_relu", (fun x -> sq (A.leaky_relu x)), fun r -> rand_away r 3 3);
      ("relu", (fun x -> sq (A.relu x)), fun r -> rand_away r 3 3);
      ("sigmoid", (fun x -> sq (A.sigmoid x)), fun r -> rand r 2 3);
      ("exp", (fun x -> sq (A.exp x)), fun r -> rand r 2 3);
      ("clamp_max", (fun x -> sq (A.clamp_max 0.15 x)), fun r -> rand_away r 3 3);
      ( "gather_rows",
        (fun x -> sq (A.gather_rows x [| 0; 2; 0; 1 |])),
        fun r -> rand r 3 2 );
      ( "scatter_add_rows",
        (fun x -> sq (A.scatter_add_rows x [| 1; 0; 1; 0 |] ~rows:2)),
        fun r -> rand r 4 2 );
      ( "concat_cols",
        (fun x -> sq (A.concat_cols [ x; A.const w32 ])),
        fun r -> rand r 3 2 );
      ( "add_rowvec-matrix",
        (fun x -> sq (A.add_rowvec x (A.const v14))),
        fun r -> rand r 3 4 );
      ( "add_rowvec-vector",
        (fun v -> sq (A.add_rowvec (A.const m43) v)),
        fixed v13 );
      ( "col_mul-matrix",
        (fun x -> sq (A.col_mul x (A.const v41))),
        fun r -> rand r 4 3 );
      ( "col_mul-vector",
        (fun v -> sq (A.col_mul (A.const m43) v)),
        fixed v41 );
      ("row_sums", (fun x -> sq (A.row_sums x)), fun r -> rand r 3 4);
      ("sum", (fun x -> A.square (A.sum x)), fun r -> rand r 3 3);
      ("mean", (fun x -> A.mean (A.square x)), fun r -> rand r 3 3);
      ( "segment_softmax",
        (fun x ->
          A.sum (A.mul (A.segment_softmax x [| 0; 0; 1; 1; 1 |]) (A.const c51))),
        fun r -> rand r 5 1 ) ]
  in
  (* GAT edge kernels: 5 edges into 3 destinations (one of them
     empty) from 4 sources.  The node terms of the scores are below
     0.05 in magnitude and the edge terms at least 0.2, so every
     pre-activation stays at least 0.1 from the leaky kink. *)
  let e_dst = [| 0; 2; 0; 2; 2 |] and e_src = [| 1; 0; 3; 3; 2 |] in
  let small rows = Tensor.scale 0.05 (rand rng rows 1) in
  let pd3 = small 3 in
  let ps4 = small 4 in
  let pe5 = rand_away rng 5 1 in
  let hs42 = rand rng 4 2 in
  let he52 = rand rng 5 2 in
  let a51 = rand rng 5 1 in
  let scores pd ps pe = sq (A.edge_scores pd ~dst:e_dst ps ~src:e_src pe) in
  let aggregate hs he alpha =
    sq (A.edge_aggregate hs ~src:e_src he alpha ~dst:e_dst ~rows:3)
  in
  let edge_cases =
    [ ( "edge_scores-pd",
        (fun x -> scores x (A.const ps4) (A.const pe5)),
        fixed pd3 );
      ( "edge_scores-ps",
        (fun x -> scores (A.const pd3) x (A.const pe5)),
        fixed ps4 );
      ( "edge_scores-pe",
        (fun x -> scores (A.const pd3) (A.const ps4) x),
        fixed pe5 );
      ( "edge_aggregate-hs",
        (fun x -> aggregate x (A.const he52) (A.const a51)),
        fixed hs42 );
      ( "edge_aggregate-he",
        (fun x -> aggregate (A.const hs42) x (A.const a51)),
        fixed he52 );
      ( "edge_aggregate-alpha",
        (fun x -> aggregate (A.const hs42) (A.const he52) x),
        fixed a51 ) ]
  in
  List.map
    (fun (name, build, input) ->
      check ~name ~build (input (Rng.create (Hashtbl.hash (seed, name)))))
    (cases @ edge_cases)

(* Looser than [default_tol]: the composite passes through several
   LeakyReLU kinks. *)
let gat_tol = 1e-3

let gat_layer ?(attention = true) () =
  let rng = Rng.create 11 in
  let dim = 4 and heads = 2 in
  let gat = Gat.create ~attention rng ~dim ~heads in
  let n_src = 5 and n_dst = 4 in
  let src = [| 0; 1; 2; 3; 4; 1 |] and dst = [| 1; 0; 3; 2; 1; 3 |] in
  let edges = { Te_graph.src; dst; feat = rand rng (Array.length src) 1 } in
  let x_src = A.leaf (rand rng n_src dim) in
  let x_dst = A.leaf (rand rng n_dst dim) in
  let forward () = A.sum (A.square (Gat.forward gat ~x_src ~x_dst ~edges)) in
  let targets =
    ("gat:x_src", x_src) :: ("gat:x_dst", x_dst)
    :: List.mapi (fun i p -> (Printf.sprintf "gat:param%d" i, p)) (Gat.params gat)
  in
  List.map
    (fun (name, param) -> check_inplace ~tol:gat_tol ~name ~param ~forward)
    targets
