type step_info = {
  time : int;
  window : int list;
  window_rsum : int;
  case : Assign.case;
  extra : int option;
  at_left_border : bool;
  at_right_border : bool;
  finished : int list;
}

let loop ?(observe = fun _ _ _ -> ()) inst ~window_of ~assign =
  let st = State.create inst in
  let steps = ref [] in
  let carried = ref Window.empty in
  let fuel = ref (Instance.total_requirement inst + 1) in
  while not (State.all_finished st) do
    Robust.Context.poll ();
    decr fuel;
    if !fuel < 0 then Robust.Failure.internal_error "Listing1.loop: no progress";
    let w = window_of st !carried in
    let allocs, w' = assign st w in
    let finished = State.consume_allocs st allocs ~reps:1 in
    observe st w' finished;
    steps := { Schedule.allocs; repeat = 1 } :: !steps;
    let survivors = Window.prune st w' in
    List.iter (State.unlink st) finished;
    carried := survivors;
    State.tick st
  done;
  Schedule.make inst (List.rev !steps)

let run_traced ?(check = false) ?(variant = `Fixed) inst =
  let size = inst.Instance.m - 1 in
  let budget = inst.Instance.scale in
  let trace = ref [] in
  let sched =
    loop inst
      ~window_of:(fun st carried ->
        let w = Window.compute ~variant st carried ~size ~budget in
        if check then assert (Window.is_effectively_maximal st w ~k:size ~budget);
        w)
      ~assign:(fun st w ->
        let outcome = Assign.compute st w ~budget ~extra:true in
        trace :=
          {
            time = State.now st + 1;
            window = Window.members st w;
            window_rsum = Window.rsum w;
            case = outcome.Assign.case;
            extra = outcome.Assign.extra;
            at_left_border = Window.left_neighbor st w = None;
            at_right_border = Window.right_neighbor st w = None;
            finished = [];
          }
          :: !trace;
        (outcome.Assign.allocs, outcome.Assign.window))
      ~observe:(fun st w' finished ->
        if check then begin
          (* Observation 3.2: at most one fractured job after the step. *)
          let fractured = List.filter (State.fractured st) (Window.members st w') in
          assert (List.length fractured <= 1)
        end;
        match !trace with info :: rest -> trace := { info with finished } :: rest | [] -> ())
  in
  (sched, List.rev !trace)

let run ?check ?variant inst = fst (run_traced ?check ?variant inst)
