module Geo = Sate_geo.Geo
module Population = Sate_geo.Population
module Rng = Sate_util.Rng

(* Section 4: 222 relay sites.  Smoothing 5.0 lets remote land host
   the occasional relay; seed 42 fixes the layout. *)
let count = 222
let smoothing = 5.0
let seed = 42

let generate () =
  let rng = Rng.create seed in
  let pop = Population.synthetic ~seed in
  let sampler = Population.make_sampler pop ~smoothing ~land_only:true in
  Array.init count (fun _ ->
      let lat_deg, lon_deg = Population.sample sampler rng in
      Geo.of_lat_lon ~lat_deg ~lon_deg ~alt_km:0.0)
