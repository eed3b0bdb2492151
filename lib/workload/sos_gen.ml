module Rng = Prelude.Rng
module D = Distributions

type family = { name : string; req : D.t; size : D.t }

let default_scale = 720720

(* Draws straight into two int arrays, size then req per job. *)
let generate rng family ~n ~m ?(scale = default_scale) () =
  let size = Array.make n 0 and req = Array.make n 0 in
  for i = 0 to n - 1 do
    size.(i) <- max 1 (D.sample rng family.size);
    req.(i) <- max 1 (D.sample rng family.req)
  done;
  Sos.Instance.of_arrays ~m ~scale ~size ~req

let sizes_1_20 = D.Uniform { lo = 1; hi = 20 }
let s = default_scale

let uniform_wide = { name = "uniform-wide"; req = D.Uniform { lo = 1; hi = s }; size = sizes_1_20 }

let uniform_small =
  { name = "uniform-small"; req = D.Uniform { lo = 1; hi = s / 4 }; size = sizes_1_20 }

let bimodal =
  {
    name = "bimodal";
    req =
      D.Bimodal
        { lo1 = 1; hi1 = s / 20; lo2 = s / 2; hi2 = s * 19 / 20; p2 = 0.2 };
    size = sizes_1_20;
  }

let heavy_tail =
  {
    name = "heavy-tail";
    req = D.Pareto { alpha = 1.3; xmin = s / 100; cap = s };
    size = sizes_1_20;
  }

let near_one =
  { name = "near-one"; req = D.Uniform { lo = (s / 2) + 1; hi = s }; size = sizes_1_20 }

let tiny = { name = "tiny"; req = D.Uniform { lo = 1; hi = s / 64 }; size = sizes_1_20 }

let unit_of family = { family with name = family.name ^ "-unit"; size = D.Constant 1 }

let all_families = [ uniform_wide; uniform_small; bimodal; heavy_tail; near_one; tiny ]

let generate_correlated rng ~n ~m ?(scale = default_scale) () =
  let specs =
    List.init n (fun _ ->
        let p = Rng.int_in rng 1 20 in
        let noise = 0.5 +. Rng.float rng 1.0 in
        let r =
          int_of_float (float_of_int p /. 20.0 *. float_of_int scale *. noise)
        in
        (p, max 1 (min scale r)))
  in
  Sos.Instance.create ~m ~scale specs

let random_instance rng ?(max_n = 40) ?(max_m = 10) ?(max_size = 8) ?scale () =
  let scale = match scale with Some c -> c | None -> Rng.int_in rng 3 240 in
  let m = Rng.int_in rng 2 max_m in
  let n = Rng.int_in rng 1 max_n in
  let specs =
    List.init n (fun _ ->
        (Rng.int_in rng 1 max_size, Rng.int_in rng 1 (scale * 5 / 4)))
  in
  Sos.Instance.create ~m ~scale specs
