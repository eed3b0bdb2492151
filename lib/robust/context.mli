(** Ambient per-task scope for the resilient batch engine.

    The engine wraps every task attempt in {!with_ctx}, which publishes
    the task's (submission index, retry attempt, cancel token) in
    domain-local storage. Library code deep inside a solver can then:

    - poll for cooperative cancellation / deadlines ({!poll}) without a
      token parameter threaded through every signature, and
    - derive deterministic per-attempt randomness or fault-injection
      decisions from [(index, attempt)] — never from domain identity — so
      runs stay byte-identical at any domain count.

    Outside any scope all reads are cheap no-ops: {!poll} is one atomic
    load when no scope is active anywhere in the process. *)

type t = private {
  index : int;  (** the task's submission index in its batch *)
  attempt : int;  (** 0-based retry attempt *)
  cancel : Cancel.t;
  mutable hits : (string, int) Hashtbl.t option;  (** see {!hits} *)
}

val make : index:int -> attempt:int -> cancel:Cancel.t -> t

val hits : t -> (string, int) Hashtbl.t
(** The attempt's chaos-site hit counters (see {!Chaos}), owned by the
    executing domain and never shared. Made on first use, so a scope in
    a run without an armed probabilistic chaos rule allocates no table. *)

val with_ctx : t -> (unit -> 'a) -> 'a
(** Run the thunk with [t] as the current scope (restored on exit, also on
    exception; scopes nest). *)

val current : unit -> t option

val index : unit -> int
(** Current task index, [-1] outside any scope. *)

val attempt : unit -> int
(** Current retry attempt, [0] outside any scope. *)

val poll : unit -> unit
(** {!Cancel.check} on the current scope's token; no-op outside a scope.
    Cheap enough for a solver's per-step loop. *)
