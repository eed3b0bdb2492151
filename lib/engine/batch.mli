(** Deterministic, fault-tolerant batch maps over arrays of thunks, on a
    {!Pool}.

    Results always come back in submission order, and a failing task turns
    into an [Error] for its own index instead of killing the pool or the
    batch. Combined with the per-task-index seeding contract (see
    {!Pool}), every function here returns byte-identical results at any
    domain count — [~domains:1] is the exact sequential path.

    {b Resilience} (doc/ROBUSTNESS.md). Every entry point takes:
    - [?retries]: failed attempts of {e transient} classes
      ({!Robust.Failure.transient}: task exceptions and deadline expiry)
      are re-run up to [retries] extra times. Each attempt executes inside
      an ambient {!Robust.Context} scope carrying [(index, attempt)], so a
      task re-deriving randomness via [Rng.create3 base index attempt]
      retries deterministically at any domain count.
    - [?task_timeout]: a per-attempt cooperative deadline in wall seconds.
      Tasks (the solvers do, via [Robust.Context.poll]) observe it at loop
      boundaries; an expired attempt fails with [Deadline_exceeded].
    - [?cancel]: a batch-wide {!Robust.Cancel} token. Once cancelled,
      running tasks unwind at their next poll and not-yet-started tasks
      fail immediately, all with [Cancelled]; the pool stays usable.
    - [?backoff]: a {!Robust.Backoff.policy}. When given, a retry sleeps
      [Backoff.delay policy ~index ~attempt] first — a capped, jittered,
      deterministic delay keyed on [(policy seed, index, attempt)], so
      transient-fault sites are not hammered by immediate re-runs and the
      delay schedule (like the output bytes) is identical at any domain
      count. Omitted = immediate retry, the pre-backoff behaviour. *)

type error = {
  index : int;  (** the failing task's submission index *)
  message : string;  (** {!Robust.Failure.message} of [failure] *)
  failure : Robust.Failure.t;  (** structured failure class *)
  backtrace : string;
      (** backtrace captured at the raise site of the final attempt; [""]
          unless backtrace recording is on ([Printexc.record_backtrace]) *)
  attempts : int;  (** attempts executed (1 = no retry happened) *)
}

type 'a outcome = ('a, error) result

val map :
  ?domains:int ->
  ?chunk:int ->
  ?retries:int ->
  ?task_timeout:float ->
  ?cancel:Robust.Cancel.t ->
  ?backoff:Robust.Backoff.policy ->
  (unit -> 'a) array ->
  'a outcome array
(** [map ~domains ~chunk tasks] runs every thunk on a fresh pool of
    [domains] workers (default {!Pool.recommended_domain_count}), [chunk]
    consecutive tasks per queued unit of work (default 1), and returns the
    outcomes in submission order. *)

val map_pool :
  Pool.t ->
  ?chunk:int ->
  ?retries:int ->
  ?task_timeout:float ->
  ?cancel:Robust.Cancel.t ->
  ?backoff:Robust.Backoff.policy ->
  (unit -> 'a) array ->
  'a outcome array
(** [map] on an existing pool (reusable across batches — a failed task
    leaves the pool fully usable). *)

val stream_seq :
  Pool.t ->
  ?chunk:int ->
  ?window:int ->
  ?retries:int ->
  ?task_timeout:float ->
  ?cancel:Robust.Cancel.t ->
  ?backoff:Robust.Backoff.policy ->
  (int -> (unit -> 'a) option) ->
  f:(int -> 'a outcome -> unit) ->
  int
(** [stream_seq pool producer ~f] is the pull-based, constant-memory
    batch: [producer i] is called on the calling thread, strictly in
    increasing index order and exactly once per index, until it returns
    [None] — so a producer can pull specs straight off a file reader — and
    [f i outcome_i] is called on the calling thread in increasing index
    order. Returns the number of tasks produced.

    At most [window] tasks (default [4 * domains * chunk], clamped up to
    [chunk]) are in flight between producer and consumer, so memory is
    O(window) regardless of stream length. The determinism contract is
    unchanged: task randomness keyed on the submission index (e.g.
    {!Prelude.Rng.create2}/[create3]) makes the emitted sequence
    byte-identical at any domain count, and [?retries]/[?task_timeout]/
    [?cancel] behave exactly as in {!map}. *)
