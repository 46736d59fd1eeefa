module Rng = Sate_util.Rng

let grid_cols = 360

let grid_rows = 180

type t = {
  density : float array; (* row-major, row 0 at lat -90 *)
  land_mask : bool array;
}

let cell_of ~lat_deg ~lon_deg =
  let lat = Float.max (-90.0) (Float.min 89.999 lat_deg) in
  let lon =
    let l = Float.rem (lon_deg +. 180.0) 360.0 in
    if l < 0.0 then l +. 360.0 else l
  in
  let row = int_of_float (lat +. 90.0) in
  let col = int_of_float lon in
  (row * grid_cols) + min (grid_cols - 1) col

(* Coarse rectangular approximations of the continents: (lat_lo,
   lat_hi, lon_lo, lon_hi).  Only the lat/lon structure matters for
   the simulation: land_mask-concentrated users, empty oceans, polar
   emptiness. *)
let continent_boxes =
  [ (25.0, 70.0, -10.0, 60.0) (* Europe / Middle East *)
  ; (5.0, 55.0, 60.0, 145.0) (* Asia *)
  ; (-10.0, 8.0, 95.0, 140.0) (* maritime southeast Asia *)
  ; (-35.0, 35.0, -17.0, 50.0) (* Africa *)
  ; (15.0, 70.0, -165.0, -55.0) (* North America *)
  ; (-55.0, 12.0, -82.0, -35.0) (* South America *)
  ; (-43.0, -11.0, 113.0, 153.0) (* Australia *) ]

(* Major metro hot spots: (lat, lon, weight). *)
let hotspots =
  [ (40.7, -74.0, 9.0) (* New York *)
  ; (34.0, -118.2, 7.0) (* Los Angeles *)
  ; (19.4, -99.1, 6.0) (* Mexico City *)
  ; (-23.5, -46.6, 7.0) (* Sao Paulo *)
  ; (51.5, -0.1, 8.0) (* London *)
  ; (48.9, 2.3, 6.0) (* Paris *)
  ; (55.8, 37.6, 5.0) (* Moscow *)
  ; (30.0, 31.2, 6.0) (* Cairo *)
  ; (6.5, 3.4, 7.0) (* Lagos *)
  ; (-26.2, 28.0, 4.0) (* Johannesburg *)
  ; (28.6, 77.2, 10.0) (* Delhi *)
  ; (19.1, 72.9, 9.0) (* Mumbai *)
  ; (39.9, 116.4, 10.0) (* Beijing *)
  ; (31.2, 121.5, 10.0) (* Shanghai *)
  ; (35.7, 139.7, 9.0) (* Tokyo *)
  ; (37.6, 127.0, 7.0) (* Seoul *)
  ; (-6.2, 106.8, 8.0) (* Jakarta *)
  ; (14.6, 121.0, 5.0) (* Manila *)
  ; (-33.9, 151.2, 4.0) (* Sydney *)
  ; (41.0, 29.0, 5.0) (* Istanbul *)
  ; (24.9, 67.0, 6.0) (* Karachi *)
  ; (23.8, 90.4, 6.0) (* Dhaka *)
  ; (-34.6, -58.4, 4.0) (* Buenos Aires *)
  ; (45.5, -73.6, 3.0) (* Montreal *)
  ; (1.35, 103.8, 4.0) (* Singapore *) ]

let in_box lat lon (lat_lo, lat_hi, lon_lo, lon_hi) =
  lat >= lat_lo && lat <= lat_hi && lon >= lon_lo && lon <= lon_hi

let synthetic ~seed =
  let rng = Rng.create seed in
  let density = Array.make (grid_rows * grid_cols) 0.0 in
  let land_mask = Array.make (grid_rows * grid_cols) false in
  for row = 0 to grid_rows - 1 do
    for col = 0 to grid_cols - 1 do
      let lat = float_of_int row -. 90.0 +. 0.5 in
      let lon = float_of_int col -. 180.0 +. 0.5 in
      let on_land = List.exists (in_box lat lon) continent_boxes in
      let idx = (row * grid_cols) + col in
      land_mask.(idx) <- on_land;
      if on_land then begin
        (* Rural baseline with mild noise. *)
        let base = 1.0 +. Rng.float rng 0.5 in
        (* Urban kernels: exponential decay with great-circle distance. *)
        let urban =
          List.fold_left
            (fun acc (hlat, hlon, w) ->
              let d = Geo.great_circle_km ~lat1:lat ~lon1:lon ~lat2:hlat ~lon2:hlon in
              acc +. (w *. 100.0 *. exp (-.d /. 300.0)))
            0.0 hotspots
        in
        density.(idx) <- base +. urban
      end
    done
  done;
  { density; land_mask }

let density t ~lat_deg ~lon_deg = t.density.(cell_of ~lat_deg ~lon_deg)

let is_land t ~lat_deg ~lon_deg = t.land_mask.(cell_of ~lat_deg ~lon_deg)

let cell_probabilities t ~smoothing =
  let n = grid_rows * grid_cols in
  let raw = Array.init n (fun i -> t.density.(i) +. smoothing) in
  let total = Array.fold_left ( +. ) 0.0 raw in
  Array.map (fun v -> v /. total) raw

let location_in_cell rng idx =
  let row = idx / grid_cols and col = idx mod grid_cols in
  let lat = float_of_int row -. 90.0 +. Rng.float rng 1.0 in
  let lon = float_of_int col -. 180.0 +. Rng.float rng 1.0 in
  (lat, lon)

type sampler = { cumulative : float array }

let make_sampler t ~smoothing ~land_only =
  let probs = cell_probabilities t ~smoothing in
  let masked =
    if land_only then Array.mapi (fun i p -> if t.land_mask.(i) then p else 0.0) probs
    else probs
  in
  let n = Array.length masked in
  let cumulative = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. masked.(i);
    cumulative.(i) <- !acc
  done;
  assert (!acc > 0.0);
  { cumulative }

let sample s rng =
  let total = s.cumulative.(Array.length s.cumulative - 1) in
  let target = Rng.float rng total in
  (* Binary search for the first cumulative value exceeding target. *)
  let lo = ref 0 and hi = ref (Array.length s.cumulative - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if s.cumulative.(mid) > target then hi := mid else lo := mid + 1
  done;
  location_in_cell rng !lo
