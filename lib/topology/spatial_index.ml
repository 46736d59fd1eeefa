module Geo = Sate_geo.Geo

(* 3D grid over ECEF space.  Cell edge of 500 km keeps cell
   populations small for LEO shells while the ring lower bound
   [(ring - 1) * cell_km] stays tight. *)
let cell_km = 500.0

(* A cell's box distance and its points' distances round differently:
   for a point on the box's nearest corner, the rounded distance
   squared can fall below the box's squared distance.  This slack
   keeps such a cell from being pruned at a bound equal to the
   point's distance. *)
let slack_km = 1e-6

(* The cells of the bounding box of the indexed points, flattened
   x-major: cell [(ix, iy, iz)] is number
   [((ix - x0) * ny + (iy - y0)) * nz + (iz - z0)], and its ids are
   [ids.(start.(c)) .. ids.(start.(c + 1) - 1)], in descending order. *)
type t = {
  positions : Geo.vec3 array;
  x0 : int;
  y0 : int;
  z0 : int;
  nx : int;
  ny : int;
  nz : int;
  start : int array;
  ids : int array;
}

let cell_of v = int_of_float (Float.floor (v /. cell_km))

let build positions =
  let n = Array.length positions in
  let axis get = Array.map (fun p -> cell_of (get p)) positions in
  let ax = axis (fun p -> p.Geo.x) and ay = axis (fun p -> p.Geo.y)
  and az = axis (fun p -> p.Geo.z) in
  (* First cell and cell count of the box along one axis. *)
  let extent a =
    if n = 0 then (0, 0)
    else
      let lo = Array.fold_left Int.min Int.max_int a in
      (lo, Array.fold_left Int.max Int.min_int a - lo + 1)
  in
  let (x0, nx), (y0, ny), (z0, nz) = (extent ax, extent ay, extent az) in
  let cells = nx * ny * nz in
  (* Counting sort: count into [start.(c)], turn the counts into cell
     ends, then fill each cell from its end in ascending id order. *)
  let start = Array.make (cells + 1) 0 in
  let cell i = ((((ax.(i) - x0) * ny) + (ay.(i) - y0)) * nz) + (az.(i) - z0) in
  for i = 0 to n - 1 do
    start.(cell i) <- start.(cell i) + 1
  done;
  for c = 1 to cells do
    start.(c) <- start.(c) + start.(c - 1)
  done;
  let ids = Array.make n 0 in
  for i = 0 to n - 1 do
    let c = cell i in
    start.(c) <- start.(c) - 1;
    ids.(start.(c)) <- i
  done;
  { positions; x0; y0; z0; nx; ny; nz; start; ids }

(* Same floats as [Geo.distance p q], without the intermediate vector. *)
let[@inline] distance (p : Geo.vec3) (q : Geo.vec3) =
  let dx = p.x -. q.x and dy = p.y -. q.y and dz = p.z -. q.z in
  sqrt ((dx *. dx) +. (dy *. dy) +. (dz *. dz))

(* Squared distance from [v] to cell [i]'s extent along one axis. *)
let[@inline] gap2 v i =
  let lo = float_of_int i *. cell_km in
  let g = if v < lo then lo -. v else if v > lo +. cell_km then v -. lo -. cell_km else 0.0 in
  g *. g

(* The search bound.  An all-float record is stored flat, so [nearest]
   narrows it without allocating. *)
type bound = { mutable km : float }

let[@inline] in_reach bound g2 =
  let b = bound.km +. slack_km in
  g2 <= b *. b

(* Visit the indexed points ring by ring out from [p]'s cell: rings in
   increasing Chebyshev radius, the cells of a ring in (dx, dy, dz)
   lexicographic order, the ids of a cell in descending order.  Stop
   before the first ring whose lower bound [(r - 1) * cell_km] exceeds
   [bound.km], skip every cell whose box is farther than [bound.km]
   (plus slack), and call [f id] on each point of the others.  [f] may
   lower [bound.km]. *)
let scan t (p : Geo.vec3) bound f =
  let cx = cell_of p.x and cy = cell_of p.y and cz = cell_of p.z in
  (* The ring beyond which no cell of the box lies. *)
  let farthest c c0 n = Int.max (abs (c0 - c)) (abs (c0 + n - 1 - c)) in
  let last_ring =
    if Array.length t.ids = 0 then -1
    else
      Int.max (farthest cx t.x0 t.nx)
        (Int.max (farthest cy t.y0 t.ny) (farthest cz t.z0 t.nz))
  in
  let visit ix iy iz =
    let c = (((((ix - t.x0) * t.ny) + (iy - t.y0)) * t.nz) + iz) - t.z0 in
    let first = t.start.(c) and stop = t.start.(c + 1) in
    if first < stop && in_reach bound (gap2 p.x ix +. gap2 p.y iy +. gap2 p.z iz) then
      for k = first to stop - 1 do
        f t.ids.(k)
      done
  in
  let r = ref 0 in
  while !r <= last_ring && float_of_int (!r - 1) *. cell_km <= bound.km do
    let r' = !r in
    (* The ring clipped to the box; slabs and columns wholly out of
       reach are skipped before their cells. *)
    let z_first = Int.max (cz - r') t.z0 and z_last = Int.min (cz + r') (t.z0 + t.nz - 1) in
    for ix = Int.max (cx - r') t.x0 to Int.min (cx + r') (t.x0 + t.nx - 1) do
      if in_reach bound (gap2 p.x ix) then
        for iy = Int.max (cy - r') t.y0 to Int.min (cy + r') (t.y0 + t.ny - 1) do
          if in_reach bound (gap2 p.x ix +. gap2 p.y iy) then
            if abs (ix - cx) = r' || abs (iy - cy) = r' then
              for iz = z_first to z_last do
                visit ix iy iz
              done
            else begin
              (* Inside the ring's x-y square only its two z caps. *)
              if z_first = cz - r' && z_first <= z_last then visit ix iy z_first;
              if z_last = cz + r' && z_first <= z_last then visit ix iy z_last
            end
        done
    done;
    incr r
  done

(* The bound is the distance to beat: [max_km], inclusive, until a
   point is found, then the best point's distance, exclusive.  So the
   first strictly nearest point in range wins, as when every point is
   compared. *)
let nearest t p ~max_km =
  let bound = { km = max_km } and best = ref (-1) in
  scan t p bound (fun i ->
      let d = distance p t.positions.(i) in
      if d < bound.km || (d = bound.km && !best < 0) then begin
        bound.km <- d;
        best := i
      end);
  if !best >= 0 then Some (!best, bound.km) else None

let within t p ~radius_km =
  let acc = ref [] in
  scan t p { km = radius_km } (fun i ->
      let d = distance p t.positions.(i) in
      if d <= radius_km then acc := (i, d) :: !acc);
  !acc
