(** The solver table: every algorithm [sosctl -a NAME] can run, defined
    once — the paper's algorithm (Listing 1 and its [O((m+n)·n)] form),
    its ablations, the unit-size variants and the baselines. sosctl reads
    its algorithm enum, the validator's precondition, the preemption flag
    for {!Sos.Schedule.validate}, the checkpoint header's [algo=] name and
    the [export -w trace] run from an entry. *)

type requires =
  | Any
  | Window  (** [m >= 3], the window family's Theorem 3.3 precondition *)
  | Unit_sizes  (** every job has [p_j = 1] *)

type t = {
  name : string;  (** the [-a] name, also written into checkpoint headers *)
  preemptive : bool;  (** validate its schedules with [~preemption_ok:true] *)
  requires : requires;
  run : check:bool -> Sos.Instance.t -> Sos.Schedule.t;
      (** [~check:true] turns on {!Sos.Listing1.run}'s per-step assertions;
          the other solvers ignore it *)
  trace : Sos.Instance.t -> Sos.Listing1.step_info list;
      (** the Listing 1 reference trace with this entry's window rule; [[]]
          outside the window family *)
}

val all : t list
(** In CLI order; names are unique. *)

val find : string -> t option

val admit : t -> Sos.Instance.t -> (Sos.Instance.t, Robust.Failure.invalid) result
(** Checks [requires], like {!Sos.Instance.validate}:
    [Too_few_processors { need = 3 }] for [Window] on [m < 3];
    [Non_unit_size] at the first such job in the caller's order for
    [Unit_sizes]. Run it before [run]. *)
