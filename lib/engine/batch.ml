type error = {
  index : int;
  message : string;
  failure : Robust.Failure.t;
  backtrace : string;
  attempts : int;
}

type 'a outcome = ('a, error) result

(* engine.batch.tasks counts attempts and engine.batch.errors final
   failures; both are deterministic: which attempts run and which fail
   depends only on the batch (and the armed chaos configuration, itself
   keyed by task index/attempt), never on the domain count. The per-class
   failure and retry counters are runtime-class (doc/OBSERVABILITY.md). *)
let c_tasks = Obs.Metrics.counter "engine.batch.tasks"
let c_errors = Obs.Metrics.counter "engine.batch.errors"
let c_retries = Obs.Metrics.runtime_counter "engine.batch.retries"
let c_invalid = Obs.Metrics.runtime_counter "engine.batch.fail.invalid_instance"
let c_task_exn = Obs.Metrics.runtime_counter "engine.batch.fail.task_exn"
let c_deadline = Obs.Metrics.runtime_counter "engine.batch.fail.deadline"
let c_cancelled = Obs.Metrics.runtime_counter "engine.batch.fail.cancelled"

let record_failure = function
  | Robust.Failure.Invalid_instance _ -> Obs.Metrics.incr c_invalid
  | Robust.Failure.Task_exn _ -> Obs.Metrics.incr c_task_exn
  | Robust.Failure.Deadline_exceeded _ -> Obs.Metrics.incr c_deadline
  | Robust.Failure.Cancelled -> Obs.Metrics.incr c_cancelled
  | Robust.Failure.Pool_crashed _ -> ()

let error_of ~index ~attempts failure bt =
  Obs.Metrics.incr c_errors;
  {
    index;
    message = Robust.Failure.message failure;
    failure;
    backtrace = (match bt with Some b -> Printexc.raw_backtrace_to_string b | None -> "");
    attempts;
  }

let never_ran index =
  {
    index;
    message = "task never ran";
    failure = Robust.Failure.Pool_crashed "task never ran";
    backtrace = "";
    attempts = 0;
  }

(* One task: run up to [1 + retries] attempts, each inside its own ambient
   scope carrying (index, attempt, cancel token). The per-attempt token
   owns the --task-timeout deadline and chains to the batch-wide [cancel]
   parent, so cooperative pollers (Robust.Context.poll in the solvers) see
   both. Retry is bounded and deterministic: the decision depends only on
   the failure class, and a task that re-derives randomness from
   (base seed, index, Robust.Context.attempt ()) — e.g. Rng.create3 —
   reproduces the same attempt sequence at any domain count. *)
let protect ?(retries = 0) ?task_timeout ?cancel ?backoff index task =
  if retries < 0 then
    invalid_arg "Engine.Batch: retries < 0"
    [@sos.allow "R6: caller-side argument contract, rejected before the first attempt"];
  let rec go attempt =
    if match cancel with Some c -> Robust.Cancel.cancelled c | None -> false then begin
      record_failure Robust.Failure.Cancelled;
      Error (error_of ~index ~attempts:attempt Robust.Failure.Cancelled None)
    end
    else begin
      Obs.Metrics.incr c_tasks;
      let token = Robust.Cancel.create ?timeout:task_timeout ?parent:cancel () in
      let ctx = Robust.Context.make ~index ~attempt ~cancel:token in
      match
        Robust.Context.with_ctx ctx (fun () ->
            Robust.Chaos.point "engine.batch.task";
            task ())
      with
      | v -> Ok v
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          let failure = Robust.Failure.of_exn e bt in
          record_failure failure;
          if attempt < retries && Robust.Failure.transient failure then begin
            Obs.Metrics.incr c_retries;
            (* Deterministic jittered backoff before the retry: the delay
               is a pure function of (policy seed, index, attempt), so it
               never perturbs output bytes — only wall time — at any -j. *)
            (match backoff with
            | Some policy ->
                Robust.Backoff.sleep
                  (Robust.Backoff.delay policy ~index ~attempt:(attempt + 1))
            | None -> ());
            go (attempt + 1)
          end
          else Error (error_of ~index ~attempts:(attempt + 1) failure (Some bt))
    end
  in
  go 0

let map_pool pool ?chunk ?retries ?task_timeout ?cancel ?backoff tasks =
  let n = Array.length tasks in
  let out = Array.init n (fun i -> Error (never_ran i)) in
  Pool.run_ordered pool ?chunk n
    ~run:(fun i -> out.(i) <- protect ?retries ?task_timeout ?cancel ?backoff i tasks.(i))
    ~emit:ignore;
  out

let map ?domains ?chunk ?retries ?task_timeout ?cancel ?backoff tasks =
  Pool.with_pool ?domains (fun pool ->
      map_pool pool ?chunk ?retries ?task_timeout ?cancel ?backoff tasks)

(* Outcomes travel from worker to caller through a ring of [window] slots:
   task i writes slot (i mod window), emit i reads and clears it. Slot
   reuse is safe because task (i + window) is only supplied after emit i
   (the pool's in-flight bound), and the pool's completion handshake makes
   the worker's write visible to the caller. *)
let stream_seq pool ?(chunk = 1) ?window ?retries ?task_timeout ?cancel ?backoff producer ~f =
  let chunk = max 1 chunk in
  let window =
    match window with
    | None -> 4 * Pool.domains pool * chunk
    | Some w -> max chunk (max 1 w)
  in
  let slots = Array.make window None in
  Pool.run_ordered_seq pool ~chunk ~window
    (fun i ->
      match producer i with
      | None -> None
      | Some task ->
          Some
            (fun () ->
              slots.(i mod window) <-
                Some (protect ?retries ?task_timeout ?cancel ?backoff i task)))
    ~emit:(fun i ->
      match slots.(i mod window) with
      | Some r ->
          slots.(i mod window) <- None;
          f i r
      | None ->
          (* protect never raises, so the slot is always filled; this is a
             backstop for a task the pool machinery lost entirely. *)
          f i (Error (never_ran i)))
