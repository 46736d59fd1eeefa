open Sate_tensor

type t = {
  id : int;
  value : Tensor.t;
  mutable grad : Tensor.t;
  mutable back : unit -> unit;
  parents : t list;
}

(* Atomic so graphs may be built from several domains at once (the
   GNN's per-head fan-out): ids stay unique, and each node's id still
   exceeds its parents' since parents are created first.  Descending
   ids therefore remain a valid reverse topological order. *)
let counter = Atomic.make 1

(* Placeholder gradient of a node until its first [accumulate]: a
   forward pass that never runs [backward] (inference) then allocates
   no gradient buffers at all. *)
let no_grad = Tensor.create 0 0

let node value parents =
  { id = Atomic.fetch_and_add counter 1;
    value;
    grad = no_grad;
    back = (fun () -> ());
    parents }

(* Zero tensor shaped like [v].  The elementwise values and adjoints
   below fill one in a loop instead of calling [Tensor.map]/[map2]/
   [init], for the reason given in tensor.ml: a per-element closure
   boxes every float. *)
let like (v : Tensor.t) = Tensor.create v.Tensor.rows v.Tensor.cols

(* Parameters and inputs keep eager buffers: optimizers and gradient
   checks read and reset them directly. *)
let leaf value =
  let n = node value [] in
  n.grad <- like value;
  n

let const value = node value []

let shape t = (t.value.Tensor.rows, t.value.Tensor.cols)

let accumulate dst g =
  let prev = if dst.grad == no_grad then like dst.value else dst.grad in
  dst.grad <- Tensor.add prev g

let add a b =
  let out = node (Tensor.add a.value b.value) [ a; b ] in
  out.back <-
    (fun () ->
      accumulate a out.grad;
      accumulate b out.grad);
  out

let sub a b =
  let out = node (Tensor.sub a.value b.value) [ a; b ] in
  out.back <-
    (fun () ->
      accumulate a out.grad;
      accumulate b (Tensor.scale (-1.0) out.grad));
  out

let mul a b =
  let out = node (Tensor.mul a.value b.value) [ a; b ] in
  out.back <-
    (fun () ->
      accumulate a (Tensor.mul out.grad b.value);
      accumulate b (Tensor.mul out.grad a.value));
  out

let scale k a =
  let out = node (Tensor.scale k a.value) [ a ] in
  out.back <- (fun () -> accumulate a (Tensor.scale k out.grad));
  out

let matmul a b =
  let out = node (Tensor.matmul a.value b.value) [ a; b ] in
  out.back <-
    (fun () ->
      accumulate a (Tensor.matmul out.grad (Tensor.transpose b.value));
      accumulate b (Tensor.matmul (Tensor.transpose a.value) out.grad));
  out

let square a =
  let out = node (Tensor.mul a.value a.value) [ a ] in
  out.back <-
    (fun () -> accumulate a (Tensor.mul out.grad (Tensor.scale 2.0 a.value)));
  out

(* Negative slope of LeakyReLU (the GAT convention); the fused
   [Tensor.edge_scores] kernel uses the same 0.2. *)
let leaky_slope = 0.2

let leaky_relu a =
  let out = node (Tensor.leaky_relu ~alpha:leaky_slope a.value) [ a ] in
  out.back <-
    (fun () ->
      let g = out.grad.Tensor.data and x = a.value.Tensor.data in
      let d = like a.value in
      for i = 0 to Array.length x - 1 do
        d.Tensor.data.(i) <- (if x.(i) > 0.0 then g.(i) else leaky_slope *. g.(i))
      done;
      accumulate a d);
  out

let relu a =
  let x = a.value.Tensor.data in
  let y = like a.value in
  for i = 0 to Array.length x - 1 do
    y.Tensor.data.(i) <- Float.max 0.0 x.(i)
  done;
  let out = node y [ a ] in
  out.back <-
    (fun () ->
      let g = out.grad.Tensor.data in
      let d = like a.value in
      for i = 0 to Array.length x - 1 do
        d.Tensor.data.(i) <- (if x.(i) > 0.0 then g.(i) else 0.0)
      done;
      accumulate a d);
  out

let sigmoid a =
  let s = Tensor.sigmoid a.value in
  let out = node s [ a ] in
  out.back <-
    (fun () ->
      let g = out.grad.Tensor.data and y = s.Tensor.data in
      let d = like s in
      for i = 0 to Array.length y - 1 do
        d.Tensor.data.(i) <- g.(i) *. y.(i) *. (1.0 -. y.(i))
      done;
      accumulate a d);
  out

let exp a =
  let x = a.value.Tensor.data in
  let e = like a.value in
  for i = 0 to Array.length x - 1 do
    e.Tensor.data.(i) <- Stdlib.exp x.(i)
  done;
  let out = node e [ a ] in
  out.back <- (fun () -> accumulate a (Tensor.mul out.grad e));
  out

let clamp_max bound a =
  let x = a.value.Tensor.data in
  let y = like a.value in
  for i = 0 to Array.length x - 1 do
    y.Tensor.data.(i) <- Float.min bound x.(i)
  done;
  let out = node y [ a ] in
  out.back <-
    (fun () ->
      let g = out.grad.Tensor.data in
      let d = like a.value in
      for i = 0 to Array.length x - 1 do
        d.Tensor.data.(i) <- (if x.(i) < bound then g.(i) else 0.0)
      done;
      accumulate a d);
  out

let gather_rows a idx =
  let out = node (Tensor.gather_rows a.value idx) [ a ] in
  out.back <-
    (fun () ->
      accumulate a
        (Tensor.scatter_add_rows out.grad idx ~rows:a.value.Tensor.rows));
  out

let scatter_add_rows a idx ~rows =
  let out = node (Tensor.scatter_add_rows a.value idx ~rows) [ a ] in
  out.back <- (fun () -> accumulate a (Tensor.gather_rows out.grad idx));
  out

(* GAT edge nodes.  Each backward computes, in loops, exactly the
   floats the adjoints of the op chain given in tensor.mli would,
   including the [0.0 +.] with which [accumulate] starts each of the
   chain's intermediate gradients, in the same operand order.  Inside
   the chain each intermediate has one consumer, and in a GAT head
   every input has at most two, so the order in which contributions
   reach an input cannot change a bit either. *)
let edge_scores pd ~dst ps ~src pe =
  let out = node (Tensor.edge_scores pd.value ~dst ps.value ~src pe.value) [ pd; ps; pe ] in
  out.back <-
    (fun () ->
      let g = out.grad.Tensor.data in
      let x = pd.value.Tensor.data and y = ps.value.Tensor.data
      and w = pe.value.Tensor.data in
      (* Gradient of the pre-activation (the leaky_relu adjoint), which
         the chain's two adds and two gathers passed on unchanged. *)
      let d = like pe.value in
      for i = 0 to Array.length w - 1 do
        let v = (x.(dst.(i)) +. y.(src.(i))) +. w.(i) in
        d.Tensor.data.(i) <- 0.0 +. (if v > 0.0 then g.(i) else leaky_slope *. g.(i))
      done;
      accumulate pe d;
      accumulate pd (Tensor.scatter_add_rows d dst ~rows:pd.value.Tensor.rows);
      accumulate ps (Tensor.scatter_add_rows d src ~rows:ps.value.Tensor.rows));
  out

let edge_aggregate hs ~src he alpha ~dst ~rows =
  let out =
    node (Tensor.edge_aggregate hs.value ~src he.value alpha.value ~dst ~rows) [ hs; he; alpha ]
  in
  out.back <-
    (fun () ->
      let c = he.value.Tensor.cols in
      let g = out.grad.Tensor.data and x = hs.value.Tensor.data
      and y = he.value.Tensor.data and a = alpha.value.Tensor.data in
      (* [dm]: gradient of the message input [hs.(src) + he]; [da]:
         of [alpha].  The message input is recomputed per edge. *)
      let dm = like he.value and da = like alpha.value in
      for i = 0 to Array.length a - 1 do
        let grow = dst.(i) * c and srow = src.(i) * c and erow = i * c in
        let ai = a.(i) in
        let s = ref 0.0 in
        for j = 0 to c - 1 do
          let gij = 0.0 +. g.(grow + j) in
          dm.Tensor.data.(erow + j) <- 0.0 +. (gij *. ai);
          s := !s +. (gij *. (x.(srow + j) +. y.(erow + j)))
        done;
        da.Tensor.data.(i) <- !s
      done;
      accumulate he dm;
      accumulate hs (Tensor.scatter_add_rows dm src ~rows:hs.value.Tensor.rows);
      accumulate alpha da);
  out

let concat_cols parts =
  let out = node (Tensor.concat_cols (List.map (fun p -> p.value) parts)) parts in
  out.back <-
    (fun () ->
      let widths = List.map (fun p -> p.value.Tensor.cols) parts in
      let grads = Tensor.split_cols out.grad widths in
      List.iter2 accumulate parts grads);
  out

(* Column sums as a 1 x cols tensor (adjoint of row broadcast). *)
let col_sums (m : Tensor.t) =
  let cols = m.Tensor.cols in
  let out = Tensor.create 1 cols in
  for i = 0 to m.Tensor.rows - 1 do
    for j = 0 to cols - 1 do
      out.Tensor.data.(j) <- out.Tensor.data.(j) +. m.Tensor.data.((i * cols) + j)
    done
  done;
  out

let add_rowvec m v =
  let out = node (Tensor.add_rowvec m.value v.value) [ m; v ] in
  out.back <-
    (fun () ->
      accumulate m out.grad;
      accumulate v (col_sums out.grad));
  out

let col_mul m v =
  let out = node (Tensor.col_mul m.value v.value) [ m; v ] in
  out.back <-
    (fun () ->
      accumulate m (Tensor.col_mul out.grad v.value);
      accumulate v (Tensor.row_sums (Tensor.mul out.grad m.value)));
  out

let row_sums a =
  let out = node (Tensor.row_sums a.value) [ a ] in
  out.back <-
    (fun () ->
      let cols = a.value.Tensor.cols in
      let d = like a.value in
      for i = 0 to a.value.Tensor.rows - 1 do
        let g = out.grad.Tensor.data.(i) in
        for j = 0 to cols - 1 do
          d.Tensor.data.((i * cols) + j) <- g
        done
      done;
      accumulate a d);
  out

let sum a =
  let out = node (Tensor.of_array ~rows:1 ~cols:1 [| Tensor.sum a.value |]) [ a ] in
  out.back <-
    (fun () ->
      let g = out.grad.Tensor.data.(0) in
      accumulate a (Tensor.full a.value.Tensor.rows a.value.Tensor.cols g));
  out

let mean a =
  let n = float_of_int (a.value.Tensor.rows * a.value.Tensor.cols) in
  scale (1.0 /. Float.max 1.0 n) (sum a)

let segment_softmax scores seg =
  Array.iter
    (fun s ->
      if s < 0 then invalid_arg "Autodiff.segment_softmax: negative segment id")
    seg;
  let y = Tensor.segment_softmax scores.value seg in
  let out = node y [ scores ] in
  out.back <-
    (fun () ->
      let m = y.Tensor.rows in
      if m > 0 then begin
        let segments = 1 + Array.fold_left max 0 seg in
        let dot = Tensor.segment_sum (Tensor.mul y out.grad) seg ~segments in
        let g = like y in
        for i = 0 to m - 1 do
          g.Tensor.data.(i) <-
            y.Tensor.data.(i)
            *. (out.grad.Tensor.data.(i) -. dot.Tensor.data.(seg.(i)))
        done;
        accumulate scores g
      end);
  out

let scalar v = leaf (Tensor.of_array ~rows:1 ~cols:1 [| v |])

let scalar_value t =
  if t.value.Tensor.rows <> 1 || t.value.Tensor.cols <> 1 then
    invalid_arg "Autodiff.scalar_value: not a scalar";
  t.value.Tensor.data.(0)

let backward root =
  if root.value.Tensor.rows <> 1 || root.value.Tensor.cols <> 1 then
    invalid_arg "Autodiff.backward: root must be scalar";
  root.grad <- Tensor.full 1 1 1.0;
  (* Collect the reachable subgraph; node ids increase topologically
     (children are created after parents), so descending-id order is a
     valid reverse topological order. *)
  let visited = Hashtbl.create 256 in
  let nodes = ref [] in
  let rec visit n =
    if not (Hashtbl.mem visited n.id) then begin
      Hashtbl.add visited n.id ();
      nodes := n :: !nodes;
      List.iter visit n.parents
    end
  in
  visit root;
  let ordered = List.sort (fun a b -> compare b.id a.id) !nodes in
  List.iter (fun n -> n.back ()) ordered
