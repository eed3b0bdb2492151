type item = { id : int; size : int }
type alloc = int * int

let compare_item a b =
  let c = compare a.size b.size in
  if c <> 0 then c else compare a.id b.id

let sort_items items = List.sort compare_item items

let insert_sorted item items =
  let rec go = function
    | [] -> [ item ]
    | x :: rest as l -> if compare_item item x <= 0 then item :: l else x :: go rest
  in
  go items

(* Select the window: grow right from the left border while |W| < size and
   r(W) < budget; then slide right while r(W) < budget and items remain.
   Returns (skipped-prefix in order, window in order, suffix). *)
let select items ~size ~budget =
  let rec grow window count rsum rest =
    match rest with
    | x :: rest' when count < size && rsum < budget ->
        grow (x :: window) (count + 1) (rsum + x.size) rest'
    | _ -> (window, rsum, rest)
  in
  let window_rev, rsum, rest = grow [] 0 0 items in
  let rec move skipped window_rev rsum rest =
    match (window_rev, rest) with
    | dropped :: _, x :: rest' when rsum < budget ->
        (* drop min W (the last element of window_rev's reverse = the FIRST
           added); window_rev is newest-first, so min W is its last. *)
        ignore dropped;
        let rec split_last acc = function
          | [ last ] -> (List.rev acc, last)
          | y :: tl -> split_last (y :: acc) tl
          | [] -> assert false
        in
        let newer, minw = split_last [] window_rev in
        move (minw :: skipped) (x :: newer) (rsum - minw.size + x.size) rest'
    | _ -> (List.rev skipped, List.rev window_rev, rsum, rest)
  in
  move [] window_rev rsum rest

let step items ~size ~budget =
  if size <= 0 || budget <= 0 then ([], items)
  else begin
    match items with
    | [] -> ([], items)
    | _ ->
        let skipped, window, _rsum, rest = select items ~size ~budget in
        let rec assign spent = function
          | [] -> ([], None)
          | [ last ] ->
              let amount = min (budget - spent) last.size in
              let leftover =
                if amount < last.size then Some { last with size = last.size - amount }
                else None
              in
              ([ (last.id, amount) ], leftover)
          | x :: rest ->
              let allocs, leftover = assign (spent + x.size) rest in
              ((x.id, x.size) :: allocs, leftover)
        in
        let allocs, leftover = assign 0 window in
        let allocs = List.filter (fun (_, a) -> a > 0) allocs in
        let remaining = skipped @ rest in
        let remaining =
          match leftover with
          | None -> remaining
          | Some it -> insert_sorted it remaining
        in
        (allocs, remaining)
  end

let pack items ~size ~budget =
  List.iter
    (fun it -> if it.size <= 0 then invalid_arg "Splittable.pack: non-positive size")
    items;
  if items <> [] && (size <= 0 || budget <= 0) then
    invalid_arg "Splittable.pack: no progress possible";
  let rec go acc items =
    match items with
    | [] -> List.rev acc
    | _ ->
        Robust.Context.poll ();
        let allocs, rest = step items ~size ~budget in
        if allocs = [] then invalid_arg "Splittable.pack: no progress possible";
        go (allocs :: acc) rest
  in
  go [] (sort_items items)

(* Window selection with a pinned member (the started job): the window is
   built around it — grow left while property (b) survives, grow right,
   slide right dropping only unstarted members — so the pinned job is
   processed every step (non-preemption). Returns
   (skipped-prefix, window, suffix), all in sorted order. *)
let select_pinned items ~size ~budget ~pid =
  let rec split_at before = function
    | [] -> invalid_arg "Splittable.select_pinned: pinned job missing"
    | x :: rest when x.id = pid -> (List.rev before, x, rest)
    | x :: rest -> split_at (x :: before) rest
  in
  let lefts, pinned_item, rights = split_at [] items in
  (* Grow right first (establishes max W), then left under the (b) guard. *)
  let rec grow_right window count rsum rest =
    match rest with
    | x :: rest' when count < size && rsum < budget ->
        grow_right (window @ [ x ]) (count + 1) (rsum + x.size) rest'
    | _ -> (window, count, rsum, rest)
  in
  let window, count, rsum, rest =
    grow_right [ pinned_item ] 1 pinned_item.size rights
  in
  let max_size =
    match List.rev window with last :: _ -> last.size | [] -> assert false
  in
  let rec grow_left taken count rsum = function
    | x :: more when count < size && rsum + x.size - max_size < budget ->
        grow_left (x :: taken) (count + 1) (rsum + x.size) more
    | _ -> (taken, count, rsum)
  in
  let taken, count, rsum = grow_left [] count rsum (List.rev lefts) in
  let skipped =
    List.filter (fun x -> not (List.exists (fun y -> y.id = x.id) taken)) lefts
  in
  let window = taken @ window in
  (* Slide right while below budget, dropping only unstarted members. *)
  let rec move skipped window count rsum rest =
    match (window, rest) with
    | minw :: window', x :: rest' when rsum < budget && minw.id <> pid ->
        move (skipped @ [ minw ]) (window' @ [ x ]) count (rsum - minw.size + x.size) rest'
    | _ -> (skipped, window, rsum, rest)
  in
  let skipped, window, _rsum, rest = move skipped window count rsum rest in
  (skipped, window, rest)

let run_nonpreemptive inst =
  if not (Instance.unit_size inst) then
    invalid_arg "Splittable.run_nonpreemptive: instance has non-unit job sizes";
  let items =
    sort_items
      (List.init (Instance.n inst) (fun i ->
           { id = i; size = (Instance.job inst i).Job.req }))
  in
  let budget = inst.Instance.scale and size = inst.Instance.m in
  let steps = ref [] in
  let rec loop items pinned =
    match items with
    | [] -> ()
    | _ ->
        Robust.Context.poll ();
        let skipped, window, rest =
          match pinned with
          | Some pid -> select_pinned items ~size ~budget ~pid
          | None ->
              let skipped, window, _rsum, rest = select items ~size ~budget in
              (skipped, window, rest)
        in
        let rec assign spent = function
          | [] -> ([], None)
          | [ last ] ->
              let amount = min (budget - spent) last.size in
              let leftover =
                if amount < last.size then Some { last with size = last.size - amount }
                else None
              in
              ([ (last.id, amount) ], leftover)
          | x :: tl ->
              let allocs, leftover = assign (spent + x.size) tl in
              ((x.id, x.size) :: allocs, leftover)
        in
        let allocs, leftover = assign 0 window in
        let allocs = List.filter (fun (_, a) -> a > 0) allocs in
        steps :=
          {
            Schedule.allocs =
              List.map
                (fun (id, a) -> { Schedule.job = id; assigned = a; consumed = a })
                allocs;
            repeat = 1;
          }
          :: !steps;
        let remaining = skipped @ rest in
        let remaining, pinned =
          match leftover with
          | None -> (remaining, None)
          | Some it -> (insert_sorted it remaining, Some it.id)
        in
        loop remaining pinned
  in
  loop items None;
  Schedule.make inst (List.rev !steps)

let run inst =
  if not (Instance.unit_size inst) then
    invalid_arg "Splittable.run: instance has non-unit job sizes";
  let items =
    List.init (Instance.n inst) (fun i -> { id = i; size = (Instance.job inst i).Job.req })
  in
  let bins = pack items ~size:inst.Instance.m ~budget:inst.Instance.scale in
  let steps =
    List.map
      (fun allocs ->
        {
          Schedule.allocs =
            List.map (fun (id, a) -> { Schedule.job = id; assigned = a; consumed = a }) allocs;
          repeat = 1;
        })
      bins
  in
  Schedule.make inst steps
