let remaining_steps s r = ((s - 1) / r) + 1

let run ?(fuel = 2_000_000) inst =
  let n = Instance.n inst in
  let m = inst.Instance.m and budget = inst.Instance.scale in
  let s = Array.init n (fun i -> Job.s (Instance.job inst i)) in
  let req i = (Instance.job inst i).Job.req in
  let alive = ref (List.init n Fun.id) in
  let steps = ref [] in
  let fuel = ref fuel in
  while !alive <> [] do
    Robust.Context.poll ();
    decr fuel;
    if !fuel < 0 then Robust.Failure.internal_error "Preemptive.run: fuel exhausted";
    (* Jobs by descending remaining step count (ties: larger requirement
       first, to drain the resource-hungry ones early). *)
    let order =
      List.sort
        (fun a b ->
          compare
            (remaining_steps s.(b) (req b), req b, a)
            (remaining_steps s.(a) (req a), req a, b))
        !alive
    in
    let rec fill chosen count left = function
      | [] -> List.rev chosen
      | _ when count = m || left = 0 -> List.rev chosen
      | j :: rest ->
          let give = min (min (req j) left) s.(j) in
          if give = 0 then List.rev chosen
          else fill ((j, give) :: chosen) (count + 1) (left - give) rest
    in
    let shares = fill [] 0 budget order in
    let allocs =
      List.map
        (fun (j, give) ->
          s.(j) <- s.(j) - give;
          { Schedule.job = j; assigned = give; consumed = give })
        shares
    in
    if allocs = [] then Robust.Failure.internal_error "Preemptive.run: no progress";
    steps := { Schedule.allocs; repeat = 1 } :: !steps;
    alive := List.filter (fun j -> s.(j) > 0) !alive
  done;
  Schedule.make inst (List.rev !steps)
