type requires = Any | Window | Unit_sizes

type t = {
  name : string;
  preemptive : bool;
  requires : requires;
  run : check:bool -> Sos.Instance.t -> Sos.Schedule.t;
  trace : Sos.Instance.t -> Sos.Listing1.step_info list;
}

let plain run ~check:_ inst = run inst
let no_trace _ = []
let listing1_trace variant inst = snd (Sos.Listing1.run_traced ~variant inst)

let entry ?(preemptive = false) ?(requires = Any) ?(trace = no_trace) name run =
  { name; preemptive; requires; run; trace }

let all =
  [
    entry "window" ~requires:Window ~trace:(listing1_trace `Fixed) (plain Sos.Fast.run);
    entry "listing1" ~requires:Window ~trace:(listing1_trace `Fixed) (fun ~check inst ->
        Sos.Listing1.run ~check inst);
    entry "unit" ~preemptive:true ~requires:Unit_sizes (plain Sos.Splittable.run);
    entry "unit-np" ~requires:Unit_sizes (plain Sos.Splittable.run_nonpreemptive);
    entry "list-sched" (plain List_scheduling.run);
    entry "greedy" (plain Greedy_fair.run);
    entry "naive-fracture" ~requires:Window (plain Sos.Ablation.run_naive_fracture);
    entry "no-move" ~requires:Window (plain Sos.Ablation.run_no_move);
    entry "literal" ~requires:Window ~trace:(listing1_trace `Literal)
      (plain (Sos.Fast.run ~variant:`Literal));
    entry "preemptive" ~preemptive:true (plain Sos.Preemptive.run);
    entry "fixed-assignment" (plain Fixed_assignment.run);
  ]

let find name = List.find_opt (fun e -> e.name = name) all

let admit e (inst : Sos.Instance.t) =
  match e.requires with
  | Any -> Ok inst
  | Window ->
      if inst.m < 3 then Error (Robust.Failure.Too_few_processors { m = inst.m; need = 3 })
      else Ok inst
  | Unit_sizes ->
      (* report the first offending job in the caller's order *)
      let job = ref max_int and size = ref 1 in
      Array.iteri
        (fun i (j : Sos.Job.t) ->
          if j.size <> 1 && inst.original.(i) < !job then begin
            job := inst.original.(i);
            size := j.size
          end)
        inst.jobs;
      if !job = max_int then Ok inst
      else Error (Robust.Failure.Non_unit_size { job = !job; size = !size })
