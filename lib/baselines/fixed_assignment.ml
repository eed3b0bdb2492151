open Sos

type strategy = Round_robin | By_volume

let assign strategy inst =
  let n = Instance.n inst and m = inst.Instance.m in
  let queues = Array.make m [] in
  (match strategy with
  | Round_robin ->
      for i = n - 1 downto 0 do
        queues.(i mod m) <- i :: queues.(i mod m)
      done
  | By_volume ->
      let ids = Array.init n Fun.id in
      Array.sort
        (fun a b -> compare (Job.s (Instance.job inst b), a) (Job.s (Instance.job inst a), b))
        ids;
      let load = Array.make m 0 in
      Array.iter
        (fun j ->
          let p = ref 0 in
          for q = 1 to m - 1 do
            if load.(q) < load.(!p) then p := q
          done;
          load.(!p) <- load.(!p) + Job.s (Instance.job inst j);
          queues.(!p) <- j :: queues.(!p))
        ids;
      Array.iteri (fun p q -> queues.(p) <- List.rev q) queues);
  queues

(* Water-fill the budget over the head jobs, smallest requirement first,
   each capped at min(r_j, s_j left). Heads that already started must keep
   receiving at least one unit per step (non-preemption), so they are
   served first with a floor of 1; unstarted heads may be starved (they
   simply have not begun yet). *)
let water_fill inst s budget heads =
  let req j = (Instance.job inst j).Job.req in
  let started j = s.(j) < Job.s (Instance.job inst j) in
  let by_req = List.sort (fun a b -> compare (req a, a) (req b, b)) in
  let first, second = List.partition started heads in
  let rec go ~floor left count acc = function
    | [] -> (acc, left, count)
    | j :: rest ->
        let fair = left / count in
        let give = min (min (req j) (max floor fair)) (min s.(j) left) in
        go ~floor (left - give) (count - 1) ((j, give) :: acc) rest
  in
  let total = List.length heads in
  let acc, left, count = go ~floor:1 budget total [] (by_req first) in
  let acc, _, _ = go ~floor:0 left count acc (by_req second) in
  acc

let run ?(strategy = Round_robin) inst =
  let queues = assign strategy inst in
  let s = Array.init (Instance.n inst) (fun i -> Job.s (Instance.job inst i)) in
  let budget = inst.Instance.scale in
  let steps = ref [] in
  let fuel = ref (Instance.total_requirement inst + 1) in
  let heads () =
    Array.to_list queues |> List.filter_map (function j :: _ -> Some j | [] -> None)
  in
  let rec pop_finished () =
    Robust.Context.poll ();
    Array.iteri
      (fun p q -> match q with j :: rest when s.(j) = 0 -> queues.(p) <- rest | _ -> ())
      queues;
    if Array.exists (function j :: _ -> s.(j) = 0 | [] -> false) queues then
      pop_finished ()
  in
  while heads () <> [] do
    Robust.Context.poll ();
    decr fuel;
    if !fuel < 0 then Robust.Failure.internal_error "Fixed_assignment.run: no progress";
    let shares = water_fill inst s budget (heads ()) in
    let allocs =
      List.filter_map
        (fun (j, give) ->
          if give <= 0 then None
          else begin
            s.(j) <- s.(j) - give;
            Some { Schedule.job = j; assigned = give; consumed = give }
          end)
        shares
    in
    (* Guarantee progress even when water-filling starves every head (can
       only happen when budget < #heads): give one unit to the smallest. *)
    let allocs =
      if allocs <> [] then allocs
      else begin
        match heads () with
        | j :: _ ->
            s.(j) <- s.(j) - 1;
            [ { Schedule.job = j; assigned = 1; consumed = 1 } ]
        | [] -> assert false
      end
    in
    steps := { Schedule.allocs; repeat = 1 } :: !steps;
    pop_finished ()
  done;
  Schedule.make inst (List.rev !steps)
