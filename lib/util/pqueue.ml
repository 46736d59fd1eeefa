type t = {
  keys : int array; (* heap array of keys *)
  prios : float array; (* prios.(k) = priority of key k *)
  pos : int array; (* pos.(k) = index of k in [keys], or -1 *)
  mutable size : int;
}

let create n =
  { keys = Array.make (max n 1) 0; prios = Array.make (max n 1) 0.0; pos = Array.make (max n 1) (-1); size = 0 }

let[@inline] mem q k = q.pos.(k) >= 0

let swap q i j =
  let ki = q.keys.(i) and kj = q.keys.(j) in
  q.keys.(i) <- kj;
  q.keys.(j) <- ki;
  q.pos.(kj) <- i;
  q.pos.(ki) <- j

let rec sift_up q i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if q.prios.(q.keys.(i)) < q.prios.(q.keys.(parent)) then begin
      swap q i parent;
      sift_up q parent
    end
  end

let rec sift_down q i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < q.size && q.prios.(q.keys.(l)) < q.prios.(q.keys.(!smallest)) then smallest := l;
  if r < q.size && q.prios.(q.keys.(r)) < q.prios.(q.keys.(!smallest)) then smallest := r;
  if !smallest <> i then begin
    swap q i !smallest;
    sift_down q !smallest
  end

let[@inline] insert q k p =
  if mem q k then invalid_arg "Pqueue.insert: key already present";
  q.keys.(q.size) <- k;
  q.pos.(k) <- q.size;
  q.prios.(k) <- p;
  q.size <- q.size + 1;
  sift_up q (q.size - 1)

let[@inline] decrease q k p =
  if mem q k && p < q.prios.(k) then begin
    q.prios.(k) <- p;
    sift_up q q.pos.(k)
  end

let[@inline] insert_or_decrease q k p = if mem q k then decrease q k p else insert q k p

let pop q =
  if q.size = 0 then -1
  else begin
    let k = q.keys.(0) in
    q.size <- q.size - 1;
    q.pos.(k) <- -1;
    if q.size > 0 then begin
      let last = q.keys.(q.size) in
      q.keys.(0) <- last;
      q.pos.(last) <- 0;
      sift_down q 0
    end;
    k
  end

let priority q k = q.prios.(k)

(* Only [pos] says what is queued: slots of [keys] past [size] and the
   priorities of absent keys are never read before being written, so
   a cleared queue takes the same steps as a fresh one. *)
let clear q =
  for i = 0 to q.size - 1 do
    q.pos.(q.keys.(i)) <- -1
  done;
  q.size <- 0
