(* Binary min-heap on parallel arrays: priorities live in an unboxed
   float array (cheap comparisons during sifts) and values in an
   option array so vacated slots can be reset to [None].  Clearing
   matters: [pop] used to leave the popped entry aliased in
   [data.(size)], which kept arbitrarily large values — whole [Path.t]
   node arrays during Yen's algorithm — reachable from the GC's point
   of view long after the caller dropped them; [clear] retained every
   element the same way. *)

type 'a t = {
  mutable prios : float array;
  mutable values : 'a option array;
  mutable size : int;
}

let create () = { prios = [||]; values = [||]; size = 0 }

let length h = h.size

let is_empty h = h.size = 0

let grow h =
  let cap = Array.length h.prios in
  if h.size >= cap then begin
    let ncap = max 16 (cap * 2) in
    let nprios = Array.make ncap 0.0 in
    let nvalues = Array.make ncap None in
    Array.blit h.prios 0 nprios 0 h.size;
    Array.blit h.values 0 nvalues 0 h.size;
    h.prios <- nprios;
    h.values <- nvalues
  end

let swap h i j =
  let p = h.prios.(i) in
  h.prios.(i) <- h.prios.(j);
  h.prios.(j) <- p;
  let v = h.values.(i) in
  h.values.(i) <- h.values.(j);
  h.values.(j) <- v

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if h.prios.(i) < h.prios.(parent) then begin
      swap h i parent;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < h.size && h.prios.(l) < h.prios.(!smallest) then smallest := l;
  if r < h.size && h.prios.(r) < h.prios.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap h i !smallest;
    sift_down h !smallest
  end

let push h prio value =
  grow h;
  h.prios.(h.size) <- prio;
  h.values.(h.size) <- Some value;
  h.size <- h.size + 1;
  sift_up h (h.size - 1)

let value_exn = function Some v -> v | None -> assert false

let peek h = if h.size = 0 then None else Some (h.prios.(0), value_exn h.values.(0))

let pop h =
  if h.size = 0 then None
  else begin
    let prio = h.prios.(0) and value = value_exn h.values.(0) in
    h.size <- h.size - 1;
    if h.size > 0 then begin
      h.prios.(0) <- h.prios.(h.size);
      h.values.(0) <- h.values.(h.size)
    end;
    (* Clear the vacated slot so the GC can reclaim the value. *)
    h.values.(h.size) <- None;
    if h.size > 0 then sift_down h 0;
    Some (prio, value)
  end

let clear h =
  (* Same audit as [pop]: dropping [size] alone would retain every
     stored value until the slot is overwritten by a future push. *)
  Array.fill h.values 0 h.size None;
  h.size <- 0
