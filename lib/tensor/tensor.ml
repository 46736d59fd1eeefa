module Rng = Sate_util.Rng
module Par = Sate_par.Par

type t = { rows : int; cols : int; data : float array }

let create rows cols = { rows; cols; data = Array.make (rows * cols) 0.0 }

(* Output buffer of a kernel that writes every element. *)
let uninit rows cols = { rows; cols; data = Array.create_float (rows * cols) }

let full rows cols v = { rows; cols; data = Array.make (rows * cols) v }

let init rows cols f =
  { rows; cols; data = Array.init (rows * cols) (fun i -> f (i / cols) (i mod cols)) }

let of_array ~rows ~cols data =
  if Array.length data <> rows * cols then
    invalid_arg "Tensor.of_array: length mismatch";
  { rows; cols; data = Array.copy data }

let of_column v = { rows = Array.length v; cols = 1; data = Array.copy v }

let copy t = { t with data = Array.copy t.data }

let get t i j = t.data.((i * t.cols) + j)

let set t i j v = t.data.((i * t.cols) + j) <- v

let same_shape a b = a.rows = b.rows && a.cols = b.cols

let map f t = { t with data = Array.map f t.data }

let map2 f a b =
  if not (same_shape a b) then invalid_arg "Tensor.map2: shape mismatch";
  { a with data = Array.init (Array.length a.data) (fun i -> f a.data.(i) b.data.(i)) }

(* The kernels below are plain loops over the float arrays, never
   [map]/[map2]/[init] with a per-element closure: without flambda a
   closure call boxes each float it returns, which allocated about
   65 Mwords per sate-396 forward pass.  Each loop performs the same
   per-element arithmetic as the closure form, so values are
   bit-identical. *)
let elementwise name op a b =
  if not (same_shape a b) then invalid_arg (name ^ ": shape mismatch");
  let out = uninit a.rows a.cols in
  let x = a.data and y = b.data and z = out.data in
  (match op with
  | `Add -> for i = 0 to Array.length z - 1 do z.(i) <- x.(i) +. y.(i) done
  | `Sub -> for i = 0 to Array.length z - 1 do z.(i) <- x.(i) -. y.(i) done
  | `Mul -> for i = 0 to Array.length z - 1 do z.(i) <- x.(i) *. y.(i) done);
  out

let add a b = elementwise "Tensor.add" `Add a b

let sub a b = elementwise "Tensor.sub" `Sub a b

let mul a b = elementwise "Tensor.mul" `Mul a b

let scale k t =
  let out = uninit t.rows t.cols in
  for i = 0 to Array.length t.data - 1 do
    out.data.(i) <- k *. t.data.(i)
  done;
  out

let leaky_relu ~alpha t =
  let out = uninit t.rows t.cols in
  for i = 0 to Array.length t.data - 1 do
    let v = t.data.(i) in
    out.data.(i) <- (if v > 0.0 then v else alpha *. v)
  done;
  out

let sigmoid t =
  let out = uninit t.rows t.cols in
  for i = 0 to Array.length t.data - 1 do
    out.data.(i) <- 1.0 /. (1.0 +. exp (-.t.data.(i)))
  done;
  out

let matmul a b =
  if a.cols <> b.rows then invalid_arg "Tensor.matmul: inner dimension mismatch";
  let out = uninit a.rows b.cols in
  (* Register-blocked: each output row is computed 8 columns at a
     time, with the block's accumulators in local float refs (which
     ocamlopt keeps unboxed in registers) and one pass over k; the
     last [p mod 8] columns go one at a time.  Every element starts
     at +0.0 and adds [a(i,k) * b(k,j)] in ascending k, skipping
     k where [a(i,k) = 0.0] (so 0 * inf and 0 * nan never enter), the
     same sum in the same order as a plain ikj loop: bit-identical.
     Output rows are independent, so the row range splits across the
     domain pool; every band runs the exact sequential loop on its own
     rows and the result is bit-identical for any pool size. *)
  let row_band lo hi =
    let n = a.cols and p = b.cols in
    let x = a.data and y = b.data and z = out.data in
    for i = lo to hi - 1 do
      let arow = i * n and orow = i * p in
      let j = ref 0 in
      while !j + 8 <= p do
        let j0 = !j in
        let c0 = ref 0.0 and c1 = ref 0.0 and c2 = ref 0.0 and c3 = ref 0.0 in
        let c4 = ref 0.0 and c5 = ref 0.0 and c6 = ref 0.0 and c7 = ref 0.0 in
        for kk = 0 to n - 1 do
          let aik = x.(arow + kk) in
          if aik <> 0.0 then begin
            let bk = (kk * p) + j0 in
            c0 := !c0 +. (aik *. y.(bk));
            c1 := !c1 +. (aik *. y.(bk + 1));
            c2 := !c2 +. (aik *. y.(bk + 2));
            c3 := !c3 +. (aik *. y.(bk + 3));
            c4 := !c4 +. (aik *. y.(bk + 4));
            c5 := !c5 +. (aik *. y.(bk + 5));
            c6 := !c6 +. (aik *. y.(bk + 6));
            c7 := !c7 +. (aik *. y.(bk + 7))
          end
        done;
        let o = orow + j0 in
        z.(o) <- !c0;
        z.(o + 1) <- !c1;
        z.(o + 2) <- !c2;
        z.(o + 3) <- !c3;
        z.(o + 4) <- !c4;
        z.(o + 5) <- !c5;
        z.(o + 6) <- !c6;
        z.(o + 7) <- !c7;
        j := j0 + 8
      done;
      for jj = !j to p - 1 do
        let c = ref 0.0 in
        for kk = 0 to n - 1 do
          let aik = x.(arow + kk) in
          if aik <> 0.0 then c := !c +. (aik *. y.((kk * p) + jj))
        done;
        z.(orow + jj) <- !c
      done
    done
  in
  if a.rows * a.cols * b.cols < 65536 then row_band 0 a.rows
  else Par.range_iter a.rows row_band;
  out

let transpose t =
  let out = uninit t.cols t.rows in
  for i = 0 to t.rows - 1 do
    for j = 0 to t.cols - 1 do
      out.data.((j * t.rows) + i) <- t.data.((i * t.cols) + j)
    done
  done;
  out

let add_rowvec m v =
  if v.rows <> 1 || v.cols <> m.cols then
    invalid_arg "Tensor.add_rowvec: vector must be 1 x cols";
  let out = uninit m.rows m.cols in
  for i = 0 to m.rows - 1 do
    let row = i * m.cols in
    for j = 0 to m.cols - 1 do
      out.data.(row + j) <- m.data.(row + j) +. v.data.(j)
    done
  done;
  out

let col_mul m v =
  if v.cols <> 1 || v.rows <> m.rows then
    invalid_arg "Tensor.col_mul: vector must be rows x 1";
  let out = uninit m.rows m.cols in
  for i = 0 to m.rows - 1 do
    let row = i * m.cols and vi = v.data.(i) in
    for j = 0 to m.cols - 1 do
      out.data.(row + j) <- m.data.(row + j) *. vi
    done
  done;
  out

(* Raises [Invalid_argument (name ^ ": index out of range")] unless
   every index lies in [\[0, n)]. *)
let check_range name idx n =
  Array.iter
    (fun r -> if r < 0 || r >= n then invalid_arg (name ^ ": index out of range"))
    idx

let gather_rows m idx =
  check_range "Tensor.gather_rows" idx m.rows;
  let out = uninit (Array.length idx) m.cols in
  Array.iteri
    (fun i r -> Array.blit m.data (r * m.cols) out.data (i * m.cols) m.cols)
    idx;
  out

(* Shared core of segment_sum / scatter_add_rows.  Parallelism
   partitions the *output* segments: each band scans every row but
   accumulates only rows of its own segments, in row order, so the
   per-segment addition order — and hence every bit of the result —
   matches the sequential loop for any pool size. *)
let segment_sum_into out m seg =
  let band slo shi =
    for i = 0 to m.rows - 1 do
      let s = seg.(i) in
      if s >= slo && s < shi then begin
        let orow = s * m.cols and mrow = i * m.cols in
        for j = 0 to m.cols - 1 do
          out.data.(orow + j) <- out.data.(orow + j) +. m.data.(mrow + j)
        done
      end
    done
  in
  if m.rows * m.cols < 16384 then band 0 out.rows
  else Par.range_iter ~chunks:(Par.domains ()) out.rows band

let segment_sum m seg ~segments =
  if Array.length seg <> m.rows then
    invalid_arg "Tensor.segment_sum: segment length mismatch";
  Array.iter
    (fun s ->
      if s < 0 || s >= segments then
        invalid_arg "Tensor.segment_sum: segment id out of range")
    seg;
  let out = create segments m.cols in
  segment_sum_into out m seg;
  out

let scatter_add_rows m idx ~rows =
  if Array.length idx <> m.rows then
    invalid_arg "Tensor.scatter_add_rows: index length mismatch";
  check_range "Tensor.scatter_add_rows" idx rows;
  let out = create rows m.cols in
  segment_sum_into out m idx;
  out

(* GAT edge kernels: one pass over the edges, with no per-edge
   intermediate tensor.  Each value is computed with the arithmetic,
   and in the operand order, of the op chain given in tensor.mli, so
   results are bit-identical to that chain. *)
let edge_scores pd ~dst ps ~src pe =
  let name = "Tensor.edge_scores" in
  if pd.cols <> 1 || ps.cols <> 1 || pe.cols <> 1 then
    invalid_arg (name ^ ": need n x 1 operands");
  let e = pe.rows in
  if Array.length dst <> e || Array.length src <> e then
    invalid_arg (name ^ ": index length mismatch");
  check_range name dst pd.rows;
  check_range name src ps.rows;
  let out = uninit e 1 in
  let x = pd.data and y = ps.data and w = pe.data and z = out.data in
  for i = 0 to e - 1 do
    let v = (x.(dst.(i)) +. y.(src.(i))) +. w.(i) in
    z.(i) <- (if v > 0.0 then v else 0.2 *. v)
  done;
  out

let edge_aggregate hs ~src he alpha ~dst ~rows =
  let name = "Tensor.edge_aggregate" in
  let e = he.rows and c = he.cols in
  if hs.cols <> c then invalid_arg (name ^ ": column mismatch");
  if alpha.cols <> 1 || alpha.rows <> e || Array.length src <> e
     || Array.length dst <> e
  then invalid_arg (name ^ ": index length mismatch");
  check_range name src hs.rows;
  check_range name dst rows;
  let out = create rows c in
  (* Output-segment bands, as in [segment_sum_into]: each band scans
     every edge but adds only those into its own rows, in edge order,
     so the result is bit-identical for any pool size. *)
  let band lo hi =
    let x = hs.data and y = he.data and a = alpha.data and z = out.data in
    for i = 0 to e - 1 do
      let d = dst.(i) in
      if d >= lo && d < hi then begin
        let orow = d * c and srow = src.(i) * c and erow = i * c in
        let ai = a.(i) in
        for j = 0 to c - 1 do
          z.(orow + j) <- z.(orow + j) +. ((x.(srow + j) +. y.(erow + j)) *. ai)
        done
      end
    done
  in
  if e * c < 16384 then band 0 rows
  else Par.range_iter ~chunks:(Par.domains ()) rows band;
  out

let concat_cols ts =
  match ts with
  | [] -> invalid_arg "Tensor.concat_cols: empty"
  | first :: _ ->
      let rows = first.rows in
      List.iter
        (fun t -> if t.rows <> rows then invalid_arg "Tensor.concat_cols: row mismatch")
        ts;
      let cols = List.fold_left (fun acc t -> acc + t.cols) 0 ts in
      let out = uninit rows cols in
      let off = ref 0 in
      List.iter
        (fun t ->
          for i = 0 to rows - 1 do
            Array.blit t.data (i * t.cols) out.data ((i * cols) + !off) t.cols
          done;
          off := !off + t.cols)
        ts;
      out

let split_cols t widths =
  let total = List.fold_left ( + ) 0 widths in
  if total <> t.cols then invalid_arg "Tensor.split_cols: widths mismatch";
  let off = ref 0 in
  List.map
    (fun w ->
      let out = create t.rows w in
      for i = 0 to t.rows - 1 do
        Array.blit t.data ((i * t.cols) + !off) out.data (i * w) w
      done;
      off := !off + w;
      out)
    widths

let row_sums t =
  let out = create t.rows 1 in
  for i = 0 to t.rows - 1 do
    let s = ref 0.0 in
    for j = 0 to t.cols - 1 do
      s := !s +. t.data.((i * t.cols) + j)
    done;
    out.data.(i) <- !s
  done;
  out

let sum t =
  let s = ref 0.0 in
  for i = 0 to Array.length t.data - 1 do
    s := !s +. t.data.(i)
  done;
  !s

let mean t =
  if Array.length t.data = 0 then 0.0
  else sum t /. float_of_int (Array.length t.data)

let frobenius t =
  let s = ref 0.0 in
  for i = 0 to Array.length t.data - 1 do
    s := !s +. (t.data.(i) *. t.data.(i))
  done;
  sqrt !s

let segment_softmax scores seg =
  if scores.cols <> 1 then invalid_arg "Tensor.segment_softmax: need m x 1";
  if Array.length seg <> scores.rows then
    invalid_arg "Tensor.segment_softmax: segment length mismatch";
  let m = scores.rows in
  let out = create m 1 in
  if m > 0 then begin
    Array.iter
      (fun s ->
        if s < 0 then invalid_arg "Tensor.segment_softmax: negative segment id")
      seg;
    let nseg = 1 + Array.fold_left max 0 seg in
    (* Segment-partitioned bands (see segment_sum_into): each band
       owns a contiguous range of segment ids and performs the
       max / exp-sum / divide passes for exactly its own rows, in row
       order, so results are bit-identical to the sequential pass. *)
    let band slo shi =
      let w = shi - slo in
      let seg_max = Array.make w Float.neg_infinity in
      for i = 0 to m - 1 do
        let s = seg.(i) in
        if s >= slo && s < shi && scores.data.(i) > seg_max.(s - slo) then
          seg_max.(s - slo) <- scores.data.(i)
      done;
      let seg_sum = Array.make w 0.0 in
      for i = 0 to m - 1 do
        let s = seg.(i) in
        if s >= slo && s < shi then begin
          let e = exp (scores.data.(i) -. seg_max.(s - slo)) in
          out.data.(i) <- e;
          seg_sum.(s - slo) <- seg_sum.(s - slo) +. e
        end
      done;
      for i = 0 to m - 1 do
        let s = seg.(i) in
        if s >= slo && s < shi then out.data.(i) <- out.data.(i) /. seg_sum.(s - slo)
      done
    in
    if m < 2048 then band 0 nseg
    else Par.range_iter ~chunks:(Par.domains ()) nseg band
  end;
  out

let xavier rng fan_in fan_out =
  let bound = sqrt (6.0 /. float_of_int (fan_in + fan_out)) in
  init fan_in fan_out (fun _ _ -> Rng.uniform rng (-.bound) bound)
