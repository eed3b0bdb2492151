(* Reference semantics for Sos.Online: the list-based, one-unit-step
   engine that the event-driven one replaced, kept verbatim (simulate,
   materialize and the from-scratch solve path) so the suite can check
   the new engine against it step by step. Pseudo-polynomial by design:
   only for small sizes. *)

open Sos

type arrival = Online.arrival = { release : int; size : int; req : int }

let validate_arrival i a =
  let open Robust.Failure in
  if a.release < 0 then
    Error (Malformed (Printf.sprintf "job %d: negative release (got %d)" i a.release))
  else if a.size <= 0 then Error (Nonpositive_size { job = i; size = a.size })
  else if a.req <= 0 then Error (Nonpositive_req { job = i; req = a.req })
  else Ok ()

let to_instance ~m ~scale arrivals =
  List.iteri
    (fun i a ->
      match validate_arrival i a with
      | Ok () -> ()
      | Error inv -> raise (Robust.Failure.Invalid inv))
    arrivals;
  Instance.create ~m ~scale (List.map (fun a -> (a.size, a.req)) arrivals)

type sim = {
  mutable t : int;  (** steps simulated so far; the frontier *)
  mutable steps_rev : Schedule.step list;  (** allocs carry positions *)
  mutable pending : int list;  (** positions, (req, position) ascending *)
  mutable active : int list;  (** positions *)
  rem : int array;  (** remaining requirement units per position *)
  start : int array;  (** first allocated step per position, -1 *)
}

let sim_empty () =
  { t = 0; steps_rev = []; pending = []; active = []; rem = [||]; start = [||] }

let grown a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let sim_scratch sim n =
  {
    t = sim.t;
    steps_rev = sim.steps_rev;
    pending = sim.pending;
    active = sim.active;
    rem = grown sim.rem n 0;
    start = grown sim.start n (-1);
  }

let simulate ~m ~scale ~releases ~reqs sim =
  Robust.Chaos.point "sos.online.run";
  let n = Array.length releases in
  let max_release = Array.fold_left max 0 releases in
  let budget_rem =
    List.fold_left
      (fun acc p -> acc + sim.rem.(p))
      0
      (List.rev_append sim.pending sim.active)
  in
  let fuel = ref (max_release + budget_rem + n + 4) in
  while sim.pending <> [] || sim.active <> [] do
    Robust.Context.poll ();
    decr fuel;
    if !fuel < 0 then Robust.Failure.internal_error "Online.run: no progress";
    (* Admit released jobs, smallest requirement first, while the active
       set keeps property (b): everything except the largest member must
       fit below the full resource. *)
    let rec admit () =
      if List.length sim.active < m - 1 then begin
        let released, rest =
          List.partition (fun p -> releases.(p) <= sim.t) sim.pending
        in
        match released with
        | [] -> ()
        | cand :: more_released ->
            let members = cand :: sim.active in
            let sum = List.fold_left (fun acc p -> acc + reqs.(p)) 0 members in
            let mx = List.fold_left (fun acc p -> max acc reqs.(p)) 0 members in
            if sum - mx < scale then begin
              sim.active <- members;
              sim.pending <- more_released @ rest;
              admit ()
            end
      end
    in
    admit ();
    (if sim.active = [] then
       (* Idle: nothing released yet. *)
       sim.steps_rev <- { Schedule.allocs = []; repeat = 1 } :: sim.steps_rev
     else begin
       let ordered =
         List.sort (fun a b -> compare (reqs.(a), a) (reqs.(b), b)) sim.active
       in
       let rec split_last acc = function
         | [ last ] -> (List.rev acc, last)
         | x :: rest -> split_last (x :: acc) rest
         | [] -> assert false
       in
       let others, biggest = split_last [] ordered in
       let spent = ref 0 in
       let allocs_others =
         List.map
           (fun p ->
             let assigned = min reqs.(p) sim.rem.(p) in
             spent := !spent + assigned;
             { Schedule.job = p; assigned; consumed = assigned })
           others
       in
       let leftover = scale - !spent in
       let big_assigned = min (min leftover reqs.(biggest)) sim.rem.(biggest) in
       let allocs =
         allocs_others
         @ [ { Schedule.job = biggest; assigned = big_assigned; consumed = big_assigned } ]
       in
       List.iter
         (fun (a : Schedule.alloc) ->
           if sim.start.(a.job) < 0 then sim.start.(a.job) <- sim.t;
           sim.rem.(a.job) <- sim.rem.(a.job) - a.consumed)
         allocs;
       sim.steps_rev <- { Schedule.allocs; repeat = 1 } :: sim.steps_rev;
       sim.active <- List.filter (fun p -> sim.rem.(p) > 0) sim.active
     end);
    sim.t <- sim.t + 1
  done

let materialize ~m ~scale arrivals sim : Online.result =
  let inst = to_instance ~m ~scale arrivals in
  let n = Instance.n inst in
  let id_of_pos = Array.make n 0 in
  Array.iteri (fun id pos -> id_of_pos.(pos) <- id) inst.Instance.original;
  let rec trim = function
    | { Schedule.allocs = []; _ } :: rest -> trim rest
    | steps -> steps
  in
  let steps =
    List.rev_map
      (fun (step : Schedule.step) ->
        {
          step with
          Schedule.allocs =
            List.map
              (fun (a : Schedule.alloc) -> { a with Schedule.job = id_of_pos.(a.job) })
              step.Schedule.allocs;
        })
      (trim sim.steps_rev)
  in
  let start_times =
    Array.init n (fun id -> sim.start.(inst.Instance.original.(id)))
  in
  let schedule = Schedule.make inst steps in
  { instance = inst; schedule; start_times; makespan = schedule.Schedule.makespan }

(* The from-scratch branch of the old [Session.solve]. *)
let run ~m ~scale arrivals =
  let n = List.length arrivals in
  let releases = Array.make n 0 in
  let reqs = Array.make n 0 in
  let sizes = Array.make n 0 in
  List.iteri
    (fun p a ->
      releases.(p) <- a.release;
      reqs.(p) <- a.req;
      sizes.(p) <- a.size)
    arrivals;
  let by_req p q = compare (reqs.(p), p) (reqs.(q), q) in
  let sim = sim_scratch (sim_empty ()) n in
  for p = 0 to n - 1 do
    sim.rem.(p) <- sizes.(p) * reqs.(p)
  done;
  sim.pending <- List.sort by_req (List.init n Fun.id);
  simulate ~m ~scale ~releases ~reqs sim;
  materialize ~m ~scale arrivals sim
