type arrival = { release : int; size : int; req : int }

type result = {
  instance : Instance.t;
  schedule : Schedule.t;
  start_times : int array;
  makespan : int;
}

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

let release_table inst arrivals =
  let by_pos = Array.of_list (List.map (fun a -> a.release) arrivals) in
  Array.map (fun pos -> by_pos.(pos)) inst.Instance.original

let lower_bound ~m ~scale arrivals =
  let inst = to_instance ~m ~scale arrivals in
  let eq1 = Bounds.lower_bound inst in
  let horizon =
    List.fold_left (fun acc a -> max acc (a.release + a.size)) 0 arrivals
  in
  max eq1 horizon

(* ------------------------------------------------------ incremental core

   The simulation state below is keyed on arrival POSITIONS (the order
   jobs were submitted), not on instance ids. [Instance.create] sorts by
   [Job.compare_req], which tie-breaks on the original position, so
   instance-id order and (req, position) lexicographic order coincide:
   every comparison an id-based simulation would make — the admission
   order, the "everyone but the largest" split — is reproduced exactly by
   comparing (req, position). That is what lets a session keep simulating
   as jobs arrive, without renumbering history each time the sorted
   instance would shuffle ids, and still materialize a result that is
   byte-identical to a from-scratch [run] on the final job set.

   Admission order. A released job is offered ahead of everything
   released after the next successful admission, and within one such
   batch by (req, position): batch-FIFO, not a global smallest-req order.
   So the waiting jobs form one priority queue keyed on (epoch, req,
   position), where a job's epoch is the number of admissions made before
   its release, and the candidate is always its minimum.

   Everything about a step boundary [t] except the running jobs' progress
   follows from the committed admission steps and epochs: the jobs
   released before [t] are exactly those the simulation has moved, the
   waiting ones are those not admitted before [t], and the admissions so
   far are the jobs admitted before [t]. So a checkpoint holds only [t],
   the running jobs with their remaining units and the shared step list,
   and a resumed solve rebuilds the rest in one pass over the jobs. *)

(* The simulation state at the start of an event step, before that
   step's releases are moved. One is kept per step that admits a job,
   plus time 0 and the drained end state. *)
type checkpoint = {
  at : int;
  held : int array;  (** running jobs as (position, rem) pairs, (req, position) order *)
  steps : Schedule.step list;  (** reversed; allocs carry positions *)
}

(* A completed simulation over positions [0 .. n−1]. *)
type sim = {
  frontier : int;  (** its makespan *)
  checkpoints : checkpoint list;
      (** newest first: the head is the drained state at [frontier], the
          last is the empty state at 0 *)
  start : int array;  (** admission step per position *)
  epoch : int array;  (** admissions before each position's release *)
  by_req : int array;  (** positions in (req, position) order *)
}

let sim_empty =
  {
    frontier = 0;
    checkpoints = [ { at = 0; held = [||]; steps = [] } ];
    start = [||];
    epoch = [||];
    by_req = [||];
  }

(* The state a simulation mutates. The arrays are private to one solve
   and everything else is persistent, so a deadline that unwinds
   mid-solve leaves the committed [sim] intact. *)
type run = {
  mutable t : int;
  mutable steps_rev : Schedule.step list;
  mutable active : int list;  (** (req, position) ascending *)
  mutable cursor : int;  (** [unreleased.(0 .. cursor−1)] are released *)
  mutable admitted : int;
  mutable waiting : int;  (** size of the binary heap in [heap] *)
  mutable cps : checkpoint list;
  mutable iterations : int;
  unreleased : int array;  (** by release date *)
  heap : int array;  (** released, unadmitted positions, by {!waits_before} *)
  rem : int array;  (** remaining requirement units per position *)
  start : int array;  (** -1 until admitted *)
  epoch : int array;
}

let waits_before (jobs : arrival array) epoch p q =
  let ep = epoch.(p) and eq = epoch.(q) in
  ep < eq
  || ep = eq
     &&
     let rp = jobs.(p).req and rq = jobs.(q).req in
     rp < rq || (rp = rq && p < q)

let push jobs w p =
  let before = waits_before jobs w.epoch in
  let i = ref w.waiting in
  w.waiting <- w.waiting + 1;
  while !i > 0 && before p w.heap.((!i - 1) / 2) do
    w.heap.(!i) <- w.heap.((!i - 1) / 2);
    i := (!i - 1) / 2
  done;
  w.heap.(!i) <- p

let pop jobs w =
  let before = waits_before jobs w.epoch in
  w.waiting <- w.waiting - 1;
  let last = w.heap.(w.waiting) and i = ref 0 and settled = ref false in
  while not !settled do
    let l = (2 * !i) + 1 in
    let c = if l + 1 < w.waiting && before w.heap.(l + 1) w.heap.(l) then l + 1 else l in
    if c < w.waiting && before w.heap.(c) last then begin
      w.heap.(!i) <- w.heap.(c);
      i := c
    end
    else settled := true
  done;
  w.heap.(!i) <- last

(* Admit waiting jobs while fewer than m−1 are active and the active set
   keeps property (b): everything except its largest member must fit
   below the full resource. The first refusal ends admission for the
   step. *)
let rec admit ~m ~scale (jobs : arrival array) w =
  if List.length w.active < m - 1 && w.waiting > 0 then begin
    let cand = w.heap.(0) in
    let req p = jobs.(p).req in
    let sum, mx =
      List.fold_left (fun (s, mx) p -> (s + req p, max mx (req p))) (req cand, req cand) w.active
    in
    if sum - mx < scale then begin
      let rec insert = function
        | p :: rest when req p < req cand || (req p = req cand && p < cand) -> p :: insert rest
        | l -> cand :: l
      in
      w.active <- insert w.active;
      pop jobs w;
      w.admitted <- w.admitted + 1;
      admit ~m ~scale jobs w
    end
  end

let same_allocs a b =
  List.equal
    (fun (x : Schedule.alloc) (y : Schedule.alloc) ->
      x.job = y.job && x.assigned = y.assigned && x.consumed = y.consumed)
    a b

(* Run the simulation to completion, one event step per iteration: each
   step moves the jobs released by now, admits, and then repeats one
   allocation for as long as nothing changes — until the next release, or
   until some job has less left than its per-step share (it finishes
   then, or in one more partial step). Idle gaps are one block, so the
   iteration count is at most 3n+1, independent of job sizes. Equal
   adjacent blocks are merged, which makes the step list canonical
   whichever checkpoint a solve resumed from. One cooperative
   cancellation poll per iteration keeps mid-solve deadlines responsive;
   the chaos site lets the fault suite kill whole solves. *)
let simulate ~m ~scale (jobs : arrival array) w =
  Robust.Chaos.point "sos.online.run";
  let n = Array.length w.rem and u = Array.length w.unreleased in
  let fuel = ref ((4 * n) + 4) in
  let no_progress () = Robust.Failure.internal_error "Online.run: no progress" in
  let checkpoint ~active ~steps =
    match w.cps with
    | { at; _ } :: _ when at >= w.t -> ()
    | cps ->
        let held = Array.make (2 * List.length active) 0 in
        List.iteri
          (fun i p ->
            held.(2 * i) <- p;
            held.((2 * i) + 1) <- w.rem.(p))
          active;
        w.cps <- { at = w.t; held; steps } :: cps
  in
  while w.active <> [] || w.cursor < u || w.waiting > 0 do
    Robust.Context.poll ();
    decr fuel;
    if !fuel < 0 then no_progress ();
    let active = w.active and admitted = w.admitted and steps = w.steps_rev in
    while w.cursor < u && jobs.(w.unreleased.(w.cursor)).release <= w.t do
      let p = w.unreleased.(w.cursor) in
      w.epoch.(p) <- w.admitted;
      push jobs w p;
      w.cursor <- w.cursor + 1
    done;
    admit ~m ~scale jobs w;
    if w.admitted > admitted then checkpoint ~active ~steps;
    (* Everyone except the largest active job gets its full requirement,
       the largest the leftover. *)
    let rec allocate spent = function
      | [] -> []
      | [ big ] ->
          let a = min (min (scale - spent) jobs.(big).req) w.rem.(big) in
          [ { Schedule.job = big; assigned = a; consumed = a } ]
      | p :: rest ->
          let a = min jobs.(p).req w.rem.(p) in
          { Schedule.job = p; assigned = a; consumed = a } :: allocate (spent + a) rest
    in
    let allocs = allocate 0 w.active in
    let until_release =
      if w.cursor < u then jobs.(w.unreleased.(w.cursor)).release - w.t else max_int
    in
    let k =
      List.fold_left
        (fun k (a : Schedule.alloc) ->
          let rem = w.rem.(a.job) in
          if a.consumed > 0 then min k (rem / a.consumed)
          else if rem <= 0 then 1
          else k)
        until_release allocs
    in
    if k = max_int then no_progress ();
    List.iter
      (fun (a : Schedule.alloc) ->
        if w.start.(a.job) < 0 then w.start.(a.job) <- w.t;
        w.rem.(a.job) <- w.rem.(a.job) - (k * a.consumed))
      allocs;
    (w.steps_rev <-
       match w.steps_rev with
       | { Schedule.allocs = prev; repeat } :: older when same_allocs prev allocs ->
           { Schedule.allocs = prev; repeat = repeat + k } :: older
       | steps -> { Schedule.allocs; repeat = k } :: steps);
    w.t <- w.t + k;
    w.iterations <- w.iterations + 1;
    w.active <- List.filter (fun p -> w.rem.(p) > 0) w.active
  done;
  checkpoint ~active:[] ~steps:w.steps_rev

(* Merge two position arrays sorted by [before]. *)
let merge before a b =
  let na = Array.length a and nb = Array.length b in
  let out = Array.make (na + nb) 0 in
  let i = ref 0 and j = ref 0 in
  for k = 0 to na + nb - 1 do
    if !j >= nb || (!i < na && before a.(!i) b.(!j)) then begin
      out.(k) <- a.(!i);
      incr i
    end
    else begin
      out.(k) <- b.(!j);
      incr j
    end
  done;
  out

type path = Full | Extended | Rewound

(* How many new jobs get an exact divergence bound (one pass over the
   committed jobs each) before the rest fall back to their release. *)
let exact_bounds = 16

(* A lower bound on the first step at which the new jobs [added] can
   make the committed simulation [old] go differently; resuming at or
   before it is exact. Until a new job is the admission candidate, the new
   run admits exactly what the old one did. A new job [f] released at [r]
   waits under the key (A(r), req, f), where A(r) counts the admissions
   before step [r]; it cannot be the candidate while an old job with a
   smaller key, released by [r], still waits — that is, before the latest
   admission step among those jobs. Returns the bound and A. *)
let divergence_bound (old : sim) (jobs : arrival array) added =
  let old_n = Array.length old.start in
  let admitted_before r =
    let a = ref 0 in
    for p = 0 to old_n - 1 do
      if old.start.(p) < r then incr a
    done;
    !a
  in
  let bound f =
    let r = jobs.(f).release and q = jobs.(f).req in
    let e = admitted_before r and latest = ref r in
    for p = 0 to old_n - 1 do
      let s = old.start.(p) in
      if s > !latest && jobs.(p).release <= r then begin
        let ep = old.epoch.(p) and qp = jobs.(p).req in
        if ep < e || (ep = e && (qp < q || (qp = q && p < f))) then latest := s
      end
    done;
    !latest
  in
  let by_release = Array.copy added in
  Array.sort (fun p q -> Int.compare jobs.(p).release jobs.(q).release) by_release;
  let best = ref max_int and exact = ref 0 in
  Array.iter
    (fun f ->
      let r = jobs.(f).release in
      if r < !best then
        if !exact < exact_bounds then begin
          incr exact;
          best := min !best (bound f)
        end
        else best := r)
    by_release;
  (!best, admitted_before)

(* Resume the committed simulation for jobs [0 .. n−1], of which
   [old.start]'s length are already simulated, from the last checkpoint
   at or before {!divergence_bound}. The waiting queue and the admission
   count at that step are rebuilt from the committed admission steps,
   with the new jobs released before it waiting under the epochs they
   would have had; every job admitted at or after it is reset. *)
let resume (old : sim) (jobs : arrival array) ~n =
  let old_n = Array.length old.start in
  let added = Array.init (n - old_n) (fun i -> old_n + i) in
  let bound, admitted_before = divergence_bound old jobs added in
  let rec back = function cp :: older when cp.at > bound -> back older | cps -> cps in
  match back old.checkpoints with
  | [] -> Robust.Failure.internal_error "Online.solve: no checkpoint at 0"
  | cp :: _ as cps ->
      let path =
        if cp.at = 0 then Full else if cp.at = old.frontier then Extended else Rewound
      in
      let unreleased = ref [] in
      let w =
        {
          t = cp.at;
          steps_rev = cp.steps;
          active = List.init (Array.length cp.held / 2) (fun i -> cp.held.(2 * i));
          cursor = 0;
          admitted = 0;
          waiting = 0;
          cps;
          iterations = 0;
          unreleased = [||];
          heap = Array.make n 0;
          rem = Array.make n 0;
          start = Array.make n (-1);
          epoch = Array.make n 0;
        }
      in
      for p = 0 to n - 1 do
        let released = jobs.(p).release < cp.at in
        if released then
          w.epoch.(p) <- (if p < old_n then old.epoch.(p) else admitted_before jobs.(p).release)
        else unreleased := p :: !unreleased;
        if p < old_n && old.start.(p) < cp.at then begin
          w.start.(p) <- old.start.(p);
          w.admitted <- w.admitted + 1
        end
        else begin
          w.rem.(p) <- jobs.(p).size * jobs.(p).req;
          if released then push jobs w p
        end
      done;
      List.iteri (fun i p -> w.rem.(p) <- cp.held.((2 * i) + 1)) w.active;
      let unreleased = Array.of_list !unreleased in
      Array.sort (fun p q -> Int.compare jobs.(p).release jobs.(q).release) unreleased;
      let req_before p q =
        let rp = jobs.(p).req and rq = jobs.(q).req in
        rp < rq || (rp = rq && p < q)
      in
      Array.sort (fun p q -> if p = q then 0 else if req_before p q then -1 else 1) added;
      (path, { w with unreleased }, merge req_before old.by_req added)

(* Map a completed position-keyed simulation onto the offline instance:
   positions become instance ids. O(blocks·m + n); the (req, position)
   order is kept across solves, so nothing is sorted here. *)
let materialize ~m ~scale (jobs : arrival array) (sim : sim) =
  let steps_rev = match sim.checkpoints with cp :: _ -> cp.steps | [] -> [] in
  let inst =
    Instance.of_ordered ~m ~scale
      ~size:(fun p -> jobs.(p).size)
      ~req:(fun p -> jobs.(p).req)
      sim.by_req
  in
  let n = Array.length sim.by_req in
  let id_of_pos = Array.make n 0 in
  Array.iteri (fun id pos -> id_of_pos.(pos) <- id) sim.by_req;
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
      steps_rev
  in
  let start_times = Array.map (fun pos -> sim.start.(pos)) sim.by_req in
  let schedule = Schedule.make inst steps in
  { instance = inst; schedule; start_times; makespan = schedule.Schedule.makespan }

module Session = struct
  type reject =
    | Bad_arrival of Robust.Failure.invalid
    | Jobs_budget of { cap : int }
    | Volume_budget of { cap : int; volume : int }

  let reject_message = function
    | Bad_arrival inv -> Robust.Failure.message (Robust.Failure.Invalid_instance inv)
    | Jobs_budget { cap } -> Printf.sprintf "job budget exhausted (cap %d)" cap
    | Volume_budget { cap; volume } ->
        Printf.sprintf "volume budget exhausted (cap %d, held %d)" cap volume

  type stats = {
    full_solves : int;
    extended_solves : int;
    rewound_solves : int;
    cached_hits : int;
    iterations : int;
  }

  type t = {
    m : int;
    scale : int;
    max_jobs : int option;
    max_volume : int option;
    mutable jobs : arrival array;  (** growable; the first [count] are admitted *)
    mutable count : int;
    mutable volume : int;
    (* Equation (1) sums, kept as jobs arrive; [requirement] is -1 once
       Σ p·r exceeds max_int. *)
    mutable requirement : int;
    mutable max_size : int;
    mutable horizon : int;
    (* committed: a completed simulation over its first [committed_n]
       positions ([solved] once there is one), and its result once built.
       Solving never mutates it in place — the run works on private arrays
       and persistent values and is swapped in only on completion, so a
       deadline that unwinds mid-solve leaves the last good state (and
       [peek]'s answer) intact. *)
    mutable committed : sim;
    mutable solved : bool;
    mutable result : result option;
    mutable full_solves : int;
    mutable extended_solves : int;
    mutable rewound_solves : int;
    mutable cached_hits : int;
    mutable iterations : int;
  }

  let create ?max_jobs ?max_volume ~m ~scale () =
    {
      m;
      scale;
      max_jobs;
      max_volume;
      jobs = [||];
      count = 0;
      volume = 0;
      requirement = 0;
      max_size = 0;
      horizon = 0;
      committed = sim_empty;
      solved = false;
      result = None;
      full_solves = 0;
      extended_solves = 0;
      rewound_solves = 0;
      cached_hits = 0;
      iterations = 0;
    }

  let m t = t.m
  let scale t = t.scale
  let jobs t = t.count
  let volume t = t.volume
  let committed_n t = Array.length t.committed.start
  let dirty t = t.count > committed_n t || not t.solved
  let arrivals t = List.init t.count (fun p -> t.jobs.(p))

  let stats t =
    {
      full_solves = t.full_solves;
      extended_solves = t.extended_solves;
      rewound_solves = t.rewound_solves;
      cached_hits = t.cached_hits;
      iterations = t.iterations;
    }

  (* Same result, and the same exceptions, as [lower_bound] on
     [arrivals t], in O(1): the sums use [Bounds]' overflow checks. *)
  let lower_bound t =
    Instance.check_dims ~m:t.m ~scale:t.scale;
    match
      Bounds.lower_bound_of_sums ~m:t.m ~scale:t.scale
        ~requirement:(if t.requirement < 0 then None else Some t.requirement)
        ~volume:(Some t.volume) ~max_size:t.max_size
    with
    | Ok eq1 -> max eq1 t.horizon
    | Error reason -> raise (Robust.Failure.Invalid reason)

  let push t a =
    if t.count = Array.length t.jobs then begin
      let grown = Array.make (max 16 (2 * t.count)) a in
      Array.blit t.jobs 0 grown 0 t.count;
      t.jobs <- grown
    end;
    t.jobs.(t.count) <- a;
    t.count <- t.count + 1;
    t.volume <- t.volume + a.size;
    (if t.requirement >= 0 then
       t.requirement <-
         (if a.size > max_int / a.req || t.requirement > max_int - (a.size * a.req) then -1
          else t.requirement + (a.size * a.req)));
    t.max_size <- max t.max_size a.size;
    t.horizon <- max t.horizon (a.release + a.size)

  let add t a =
    match validate_arrival t.count a with
    | Error inv -> Error (Bad_arrival inv)
    | Ok () -> begin
        match t.max_jobs with
        | Some cap when t.count >= cap -> Error (Jobs_budget { cap })
        | _ ->
            let cap_v =
              match t.max_volume with Some cap -> cap | None -> max_int
            in
            if a.size > cap_v - t.volume then
              Error (Volume_budget { cap = cap_v; volume = t.volume })
            else begin
              let pos = t.count in
              push t a;
              Ok pos
            end
      end

  let committed t =
    if t.solved then Some (committed_n t, t.committed.frontier) else None

  let start t pos = t.committed.start.(pos)

  let advance t =
    if t.solved && committed_n t = t.count then t.cached_hits <- t.cached_hits + 1
    else begin
      let n = t.count and jobs = t.jobs in
      let path, w, by_req = resume t.committed jobs ~n in
      simulate ~m:t.m ~scale:t.scale jobs w;
      Instance.check_dims ~m:t.m ~scale:t.scale;
      (* Commit only now: everything above may unwind on a deadline. *)
      (match path with
      | Full -> t.full_solves <- t.full_solves + 1
      | Extended -> t.extended_solves <- t.extended_solves + 1
      | Rewound -> t.rewound_solves <- t.rewound_solves + 1);
      t.iterations <- t.iterations + w.iterations;
      t.committed <-
        { frontier = w.t; checkpoints = w.cps; start = w.start; epoch = w.epoch; by_req };
      t.solved <- true;
      t.result <- None
    end;
    (committed_n t, t.committed.frontier)

  let peek t =
    match t.result with
    | Some _ as r -> r
    | None when t.solved ->
        let r = materialize ~m:t.m ~scale:t.scale t.jobs t.committed in
        t.result <- Some r;
        t.result
    | None -> None

  let solve t =
    ignore (advance t);
    match peek t with
    | Some r -> r
    | None -> Robust.Failure.internal_error "Online.Session.solve: nothing committed"
end

let run ~m ~scale arrivals =
  let session = Session.create ~m ~scale () in
  List.iter
    (fun a ->
      match Session.add session a with
      | Ok _ -> ()
      | Error (Session.Bad_arrival inv) -> raise (Robust.Failure.Invalid inv)
      | Error r ->
          (* Unreachable: the session has no budgets; kept total for R6. *)
          raise
            (Robust.Failure.Invalid
               (Robust.Failure.Malformed (Session.reject_message r))))
    arrivals;
  Session.solve session

let respects_releases result arrivals =
  let releases = release_table result.instance arrivals in
  let ok = ref true in
  Array.iteri
    (fun j start -> if start >= 0 && start < releases.(j) then ok := false)
    result.start_times;
  Array.iteri (fun j start -> if start < 0 && Job.s (Instance.job result.instance j) > 0 then ok := false)
    result.start_times;
  !ok
