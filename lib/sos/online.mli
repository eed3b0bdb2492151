(** Online SoS: jobs arrive over time (release dates) and the scheduler
    learns of a job only at its release. The paper treats the offline
    problem; this module is the natural online extension (window-style
    greedy), kept as an explicitly heuristic variant — no competitive ratio
    is claimed, the benchmark measures it against the clairvoyant lower
    bound.

    Policy, per time step: the active set keeps every started-unfinished
    job (non-preemption), then admits released jobs while fewer than m−1
    jobs are active and the active set without its largest member stays
    below the full resource (the window algorithm's properties (b)/(e) in
    spirit); the first candidate that does not fit ends admission for the
    step. Assignment mirrors Listing 1: everyone except the largest active
    job gets its full requirement, the largest the leftover.

    Admission order is batch-FIFO, not a global smallest-requirement
    order. The jobs released since the last successful admission are
    offered by smallest requirement (ties by submission position); a
    successful admission moves all of them, in that order, behind the
    jobs an earlier admission already passed over. Those older jobs are
    offered first, so a small job released later waits behind a larger
    one that was released earlier and skipped.

    The engine is event-driven: it advances from a release, a completion,
    or the step in which a job pays its last partial units to the next,
    emits run-length-encoded steps, and jumps idle gaps in one block. A
    solve takes at most [3n+1] iterations, whatever the job sizes.

    Two entry points share one engine. {!run} is the one-shot form.
    {!Session} is the incremental form behind [sosctl serve]: jobs are
    submitted one at a time under optional job-count and volume budgets,
    and each [solve] takes one of four paths:
    - {b cached}: nothing was added since the last solve;
    - {b extended}: every new job is released at or after the committed
      frontier, so the finished simulation continues from there;
    - {b rewound}: the simulation restarts from the last checkpoint at or
      before the first step a new job could change. That is its release,
      or later: a new job cannot be admitted while an older job that
      would be offered before it still waits. A checkpoint is kept at
      every step that admits a job;
    - {b full}: that checkpoint is time 0.
    All four produce results byte-identical to {!run} on the materialized
    job set (tested property, and tested step by step against the
    unit-step engine this one replaced). *)

type arrival = { release : int; size : int; req : int }
(** [release ≥ 0] in time steps; [size], [req] as in {!Instance}. *)

type result = {
  instance : Instance.t;  (** the jobs, as an offline instance *)
  schedule : Schedule.t;  (** over the offline instance's job ids *)
  start_times : int array;  (** 0-based first step of each job *)
  makespan : int;
}

(** Incremental sessions: one tenant's arrival stream, solved on demand. *)
module Session : sig
  type t

  type reject =
    | Bad_arrival of Robust.Failure.invalid
        (** malformed job: negative release, non-positive size or req *)
    | Jobs_budget of { cap : int }  (** session already holds [cap] jobs *)
    | Volume_budget of { cap : int; volume : int }
        (** admitting the job would push total size past [cap] *)

  val reject_message : reject -> string
  (** One-line human-readable form, stable for protocol error lines. *)

  val create :
    ?max_jobs:int -> ?max_volume:int -> m:int -> scale:int -> unit -> t
  (** A fresh empty session. Budgets are enforced by {!add}; omitted means
      unlimited. [m]/[scale] are validated by the first [solve] or
      {!advance}, exactly as {!run} validates them. *)

  val add : t -> arrival -> (int, reject) Stdlib.result
  (** Admit one job; [Ok position] is its 0-based submission index.
      Rejected jobs leave the session unchanged. Never raises. *)

  val solve : t -> result
  (** The schedule for everything admitted so far — equal to
      [run ~m ~scale (arrivals t)]. May raise {!Robust.Failure.Deadline}
      (via the ambient {!Robust.Context.poll}) or a chaos-injected fault
      from the [sos.online.run] site; either way the session keeps its
      last committed state, so a later [solve] retries and {!peek} still
      answers. *)

  val peek : t -> result option
  (** The last successfully committed result, without solving. [None]
      until the first completed [solve] or {!advance}. Built on first use
      and kept until the next commit. *)

  val advance : t -> int * int
  (** What {!solve} does short of building the result: bring the
      committed simulation up to date, with the same solve paths,
      {!stats}, deadline and chaos behaviour, and return its
      [(jobs, makespan)]. [sosctl serve] answers from this, {!committed}
      and {!start}, so a query never pays for the offline instance and
      schedule. *)

  val committed : t -> (int * int) option
  (** [(jobs, makespan)] of the last committed simulation: {!peek}'s
      answer without building it. The serve layer's stale answer: when a
      fresh solve misses its deadline this is what degrades to. *)

  val start : t -> int -> int
  (** [start t pos] is the first step of the job submitted at position
      [pos] in the committed simulation. Raises [Invalid_argument] unless
      [0 ≤ pos <] the committed job count. *)

  val dirty : t -> bool
  (** [true] when {!peek}'s answer (or its absence) is stale — jobs were
      admitted after the last committed solve. *)

  val m : t -> int
  val scale : t -> int

  val jobs : t -> int
  (** Jobs admitted. *)

  val volume : t -> int
  (** [Σ size] over admitted jobs. *)

  val arrivals : t -> arrival list
  (** In submission order. *)

  val lower_bound : t -> int
  (** The module-level [lower_bound ~m ~scale (arrivals t)] in O(1): the
      session keeps the sums as jobs are added. Raises what that function
      raises, including [Robust.Failure.Invalid (Overflow _)] once
      [Σ p·r] exceeds [max_int]. *)

  type stats = {
    full_solves : int;  (** simulated from time 0 *)
    extended_solves : int;  (** continued from the committed frontier *)
    rewound_solves : int;  (** resumed from an earlier checkpoint *)
    cached_hits : int;  (** answered with the committed result *)
    iterations : int;  (** event steps simulated by committed solves *)
  }

  val stats : t -> stats
  (** How the solves so far were answered, and the work they took. *)
end

val run : m:int -> scale:int -> arrival list -> result
(** Raises [Invalid_argument] on a negative release or malformed job. *)

val lower_bound : m:int -> scale:int -> arrival list -> int
(** Clairvoyant bound: [max(Eq.(1) on all jobs, max_j (release_j + p_j))]. *)

val respects_releases : result -> arrival list -> bool
(** Every job starts no earlier than its release (the schedule validator
    knows nothing about releases, so this is checked separately). *)
