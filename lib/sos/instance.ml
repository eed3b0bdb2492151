type t = {
  m : int;
  scale : int;
  jobs : Job.t array;
  original : int array;
}

(* A structured constant, so it is never a young block: [Array.make] of a
   young value over 256 words forces a minor collection on OCaml 5. *)
let placeholder = { Job.id = 0; size = 1; req = 1 }

let check_dims ~m ~scale =
  if m < 2 then invalid_arg "Instance.create: need m >= 2";
  if scale < 1 then invalid_arg "Instance.create: need scale >= 1"

(* The one builder: [order] holds the positions in (req, position) order,
   and the records are written in place into an array made from a
   constant, which never forces a minor collection. *)
let fill ~m ~scale ~size ~req order =
  let jobs = Array.make (Array.length order) placeholder in
  Array.iteri (fun i pos -> jobs.(i) <- { Job.id = i; size = size pos; req = req pos }) order;
  { m; scale; jobs; original = order }

let of_arrays ~m ~scale ~size ~req =
  check_dims ~m ~scale;
  let n = Array.length size in
  if Array.length req <> n then invalid_arg "Instance.of_arrays: size and req lengths differ";
  for pos = 0 to n - 1 do
    Job.check ~size:size.(pos) ~req:req.(pos)
  done;
  let order = Array.init n Fun.id in
  (* Stable, so equal requirements keep position order. *)
  Array.stable_sort (fun a b -> Int.compare req.(a) req.(b)) order;
  fill ~m ~scale ~size:(Array.get size) ~req:(Array.get req) order

let create ~m ~scale specs =
  let n = List.length specs in
  let size = Array.make n 0 and req = Array.make n 0 in
  List.iteri
    (fun i (s, r) ->
      size.(i) <- s;
      req.(i) <- r)
    specs;
  of_arrays ~m ~scale ~size ~req

let of_ordered ~m ~scale ~size ~req order =
  check_dims ~m ~scale;
  let n = Array.length order in
  Array.iteri
    (fun i pos ->
      if pos < 0 || pos >= n then invalid_arg "Instance.of_ordered: position out of range";
      (if i > 0 then
         let prev = order.(i - 1) in
         if req prev > req pos || (req prev = req pos && prev >= pos) then
           invalid_arg "Instance.of_ordered: not in (req, position) order");
      Job.check ~size:(size pos) ~req:(req pos))
    order;
  fill ~m ~scale ~size ~req (Array.copy order)

let of_floats ~m ~scale specs =
  let quantize f =
    if not (Float.is_finite f) || f <= 0.0 then
      invalid_arg "Instance.of_floats: requirement must be positive and finite";
    let units = int_of_float (Float.round (f *. float_of_int scale)) in
    max 1 units
  in
  create ~m ~scale (List.map (fun (size, f) -> (size, quantize f)) specs)

let n t = Array.length t.jobs

let job t i =
  if i < 0 || i >= Array.length t.jobs then invalid_arg "Instance.job: index";
  t.jobs.(i)

let total_volume t = Array.fold_left (fun acc j -> acc + j.Job.size) 0 t.jobs
let total_requirement t = Array.fold_left (fun acc j -> acc + Job.s j) 0 t.jobs
let sum_req t = Array.fold_left (fun acc j -> acc + j.Job.req) 0 t.jobs
let max_size t = Array.fold_left (fun acc j -> max acc j.Job.size) 0 t.jobs
let unit_size t = Array.for_all (fun j -> j.Job.size = 1) t.jobs

let rescale t c =
  if c < 1 then invalid_arg "Instance.rescale: factor must be >= 1";
  {
    t with
    scale = t.scale * c;
    jobs = Array.map (fun j -> { j with Job.req = j.Job.req * c }) t.jobs;
  }

let restrict_m t m =
  if m < 2 then invalid_arg "Instance.restrict_m: need m >= 2";
  { t with m }

let to_string t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "sos %d %d %d\n" t.m t.scale (n t));
  Array.iteri
    (fun i j ->
      Buffer.add_string buf
        (Printf.sprintf "%d %d %d\n" t.original.(i) j.Job.size j.Job.req))
    t.jobs;
  Buffer.contents buf

(* Shared parser behind of_string (raising) and of_string_checked
   (Result): text -> (m, scale, caller-ordered specs). *)
let parse_text str =
  let lines =
    String.split_on_char '\n' str
    |> List.map String.trim
    |> List.filter (fun l -> l <> "")
  in
  match lines with
  | [] -> Error "Instance.of_string: empty input"
  | header :: rest -> begin
      match String.split_on_char ' ' header with
      | [ "sos"; m; scale; count ] -> begin
          match (int_of_string_opt m, int_of_string_opt scale, int_of_string_opt count) with
          | Some m, Some scale, Some count ->
              if List.length rest <> count then
                Error "Instance.of_string: job count mismatch"
              else begin
                let parse_job line =
                  match String.split_on_char ' ' line with
                  | [ pos; size; req ] -> begin
                      match
                        (int_of_string_opt pos, int_of_string_opt size, int_of_string_opt req)
                      with
                      | Some pos, Some size, Some req -> Ok (pos, (size, req))
                      | _ -> Error "Instance.of_string: malformed job line"
                    end
                  | _ -> Error "Instance.of_string: malformed job line"
                in
                let rec go acc = function
                  | [] -> Ok (List.rev acc)
                  | line :: rest -> begin
                      match parse_job line with
                      | Ok j -> go (j :: acc) rest
                      | Error _ as e -> e
                    end
                in
                match go [] rest with
                | Error _ as e -> e
                | Ok by_pos ->
                    let sorted = List.sort (fun (a, _) (b, _) -> compare a b) by_pos in
                    Ok (m, scale, List.map snd sorted)
              end
          | _ -> Error "Instance.of_string: malformed header"
        end
      | _ -> Error "Instance.of_string: malformed header"
    end

let of_string str =
  match parse_text str with
  | Ok (m, scale, specs) -> create ~m ~scale specs
  | Error msg -> failwith msg

(* ------------------------------------------------- strict validation
   (doc/ROBUSTNESS.md). The checked constructors return structured
   Robust.Failure.invalid reasons instead of raising, and additionally
   guard the Equation (1) quantities against int overflow — an instance
   whose Σ p_j or Σ p_j·r_j exceeds max_int would make the lower bound
   silently negative. *)

(* [acc + v], or -1 once a term is negative or the sum passes max_int;
   -1 stays -1. *)
let add_checked acc v = if acc < 0 || v < 0 || acc > max_int - v then -1 else acc + v

let validate ?(window = false) t =
  let open Robust.Failure in
  if window && t.m < 3 then Error (Too_few_processors { m = t.m; need = 3 })
  else begin
    let volume = ref 0 and requirement = ref 0 and reqs = ref 0 in
    Array.iter
      (fun (j : Job.t) ->
        volume := add_checked !volume j.size;
        requirement :=
          add_checked !requirement (if j.size > max_int / j.req then -1 else j.size * j.req);
        reqs := add_checked !reqs j.req)
      t.jobs;
    if !volume < 0 then Error (Overflow "total volume Σ p_j exceeds max_int")
    else if !requirement < 0 then
      Error (Overflow "total requirement Σ p_j·r_j exceeds max_int")
    else if !reqs < 0 then Error (Overflow "Σ r_j exceeds max_int")
    else Ok t
  end

let create_checked ?window ~m ~scale specs =
  let open Robust.Failure in
  if m < 2 then Error (Too_few_processors { m; need = 2 })
  else if scale < 1 then Error (Bad_scale scale)
  else begin
    let rec check i = function
      | [] -> Ok ()
      | (size, req) :: rest ->
          if size < 1 then Error (Nonpositive_size { job = i; size })
          else if req < 1 then Error (Nonpositive_req { job = i; req })
          else if size > max_int / req then
            Error (Overflow (Printf.sprintf "job %d: p_j·r_j = %d·%d exceeds max_int" i size req))
          else check (i + 1) rest
    in
    match check 0 specs with
    | Error _ as e -> e
    | Ok () -> validate ?window (create ~m ~scale specs)
  end

let of_floats_checked ?window ~m ~scale specs =
  let open Robust.Failure in
  let rec quantize i acc = function
    | [] -> Ok (List.rev acc)
    | (size, f) :: rest ->
        if not (Float.is_finite f) then Error (Not_finite { job = i; value = f })
        else if f <= 0.0 then
          (* the reason carries quantized units; a non-positive share is
             reported as 0 units (or min_int-safe floor would be noise) *)
          Error (Nonpositive_req { job = i; req = 0 })
        else
          let units = max 1 (int_of_float (Float.round (f *. float_of_int scale))) in
          quantize (i + 1) ((size, units) :: acc) rest
  in
  if scale < 1 then Error (Bad_scale scale)
  else
    match quantize 0 [] specs with
    | Error _ as e -> e
    | Ok q -> create_checked ?window ~m ~scale q

let of_string_checked ?window str =
  match parse_text str with
  | Ok (m, scale, specs) -> create_checked ?window ~m ~scale specs
  | Error msg -> Error (Robust.Failure.Malformed msg)

let pp ppf t =
  Format.fprintf ppf "@[<v>instance m=%d scale=%d n=%d@," t.m t.scale (n t);
  Array.iter (fun j -> Format.fprintf ppf "  %a@," Job.pp j) t.jobs;
  Format.fprintf ppf "@]"
