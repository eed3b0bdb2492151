(* Tests for the online-arrivals extension and the SVG renderer. *)

open Sos
module Rng = Prelude.Rng

let random_arrivals rng =
  let n = Rng.int_in rng 1 25 in
  List.init n (fun _ ->
      {
        Online.release = Rng.int_in rng 0 30;
        size = Rng.int_in rng 1 6;
        req = Rng.int_in rng 1 120;
      })

let test_online_all_at_zero_matches_offline_spirit () =
  (* With all releases 0 the online scheduler is a plain greedy; it must be
     a valid non-preemptive schedule within the general guarantee window. *)
  for seed = 1 to 100 do
    let rng = Rng.create (seed * 101) in
    let arrivals =
      List.init (Rng.int_in rng 1 30) (fun _ ->
          { Online.release = 0; size = Rng.int_in rng 1 6; req = Rng.int_in rng 1 120 })
    in
    let m = Rng.int_in rng 2 8 in
    let r = Online.run ~m ~scale:100 arrivals in
    (match Schedule.validate r.Online.schedule with
    | Ok () -> ()
    | Error v ->
        Alcotest.failf "seed %d: invalid online schedule at %d: %s" seed
          v.Schedule.at_step v.Schedule.reason);
    let lb = Online.lower_bound ~m ~scale:100 arrivals in
    if r.Online.makespan < lb then
      Alcotest.failf "seed %d: online makespan %d < clairvoyant LB %d" seed
        r.Online.makespan lb
  done

let test_online_respects_releases () =
  for seed = 1 to 150 do
    let rng = Rng.create (seed * 103) in
    let arrivals = random_arrivals rng in
    let m = Rng.int_in rng 2 8 in
    let r = Online.run ~m ~scale:100 arrivals in
    if not (Online.respects_releases r arrivals) then
      Alcotest.failf "seed %d: a job started before its release" seed;
    match Schedule.validate r.Online.schedule with
    | Ok () -> ()
    | Error v ->
        Alcotest.failf "seed %d: invalid at %d: %s" seed v.Schedule.at_step
          v.Schedule.reason
  done

let test_online_idle_then_burst () =
  (* One job released at t = 10: the schedule must wait. *)
  let r =
    Online.run ~m:3 ~scale:10 [ { Online.release = 10; size = 2; req = 5 } ]
  in
  Alcotest.(check int) "starts at release" 10 r.Online.start_times.(0);
  Alcotest.(check int) "makespan = 12" 12 r.Online.makespan

let test_online_ratio_reasonable () =
  (* Against the clairvoyant LB the greedy should stay within a small
     constant on Poisson-ish arrivals. *)
  let worst = ref 0.0 in
  for seed = 1 to 60 do
    let rng = Rng.create (seed * 107) in
    let arrivals = random_arrivals rng in
    let r = Online.run ~m:6 ~scale:100 arrivals in
    let lb = Online.lower_bound ~m:6 ~scale:100 arrivals in
    worst := max !worst (float_of_int r.Online.makespan /. float_of_int lb)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "worst online ratio %.3f <= 3.0" !worst)
    true (!worst <= 3.0)

let test_online_empty () =
  let r = Online.run ~m:4 ~scale:10 [] in
  Alcotest.(check int) "empty makespan" 0 r.Online.makespan

(* --- incremental sessions --- *)

let check_same_result ~ctx (incr : Online.result) (scratch : Online.result) =
  Alcotest.(check string)
    (ctx ^ ": instance")
    (Instance.to_string scratch.Online.instance)
    (Instance.to_string incr.Online.instance);
  Alcotest.(check int) (ctx ^ ": makespan") scratch.Online.makespan incr.Online.makespan;
  Alcotest.(check (array int))
    (ctx ^ ": start times")
    scratch.Online.start_times incr.Online.start_times;
  if incr.Online.schedule.Schedule.steps <> scratch.Online.schedule.Schedule.steps
  then Alcotest.failf "%s: step lists differ" ctx

let test_session_matches_scratch () =
  (* The qcheck-style core property: drive a session arrival by arrival,
     solving at random prefixes, and every answer must be byte-identical
     to a from-scratch [Online.run] on the same prefix — whichever of the
     cached / extended / full paths the session picked. *)
  for seed = 1 to 120 do
    let rng = Rng.create (seed * 271) in
    let m = Rng.int_in rng 2 8 in
    let arrivals =
      (* Mix of history-rewriting early releases and frontier-extending
         late ones, so all three solve paths occur across the loop. *)
      List.init (Rng.int_in rng 1 20) (fun i ->
          let release =
            if Rng.int_in rng 0 3 = 0 then Rng.int_in rng 0 5
            else Rng.int_in rng 0 (8 * (i + 1))
          in
          { Online.release; size = Rng.int_in rng 1 5; req = Rng.int_in rng 1 120 })
    in
    let session = Online.Session.create ~m ~scale:100 () in
    List.iteri
      (fun i a ->
        (match Online.Session.add session a with
        | Ok pos -> Alcotest.(check int) "position" i pos
        | Error r ->
            Alcotest.failf "seed %d: unexpected reject: %s" seed
              (Online.Session.reject_message r));
        if Rng.int_in rng 0 2 = 0 then begin
          let prefix = Online.Session.arrivals session in
          check_same_result
            ~ctx:(Printf.sprintf "seed %d prefix %d" seed (i + 1))
            (Online.Session.solve session)
            (Online.run ~m ~scale:100 prefix)
        end)
      arrivals;
    check_same_result
      ~ctx:(Printf.sprintf "seed %d final" seed)
      (Online.Session.solve session)
      (Online.run ~m ~scale:100 arrivals)
  done

let test_session_solve_paths () =
  (* Strictly increasing releases beyond each frontier: after the first
     solve, later solves must take the extend path; repeated solves with
     no new jobs must answer from cache. *)
  let session = Online.Session.create ~m:4 ~scale:100 () in
  let add release =
    match
      Online.Session.add session { Online.release; size = 2; req = 50 }
    with
    | Ok _ -> ()
    | Error r -> Alcotest.failf "reject: %s" (Online.Session.reject_message r)
  in
  add 0;
  ignore (Online.Session.solve session);
  let frontier = (Online.Session.solve session).Online.makespan in
  add (frontier + 5);
  ignore (Online.Session.solve session);
  ignore (Online.Session.solve session);
  add 0;
  (* rewrites history: must fall back to a full re-solve *)
  ignore (Online.Session.solve session);
  let stats = Online.Session.stats session in
  Alcotest.(check int) "full solves" 2 stats.Online.Session.full_solves;
  Alcotest.(check int) "extended solves" 1 stats.Online.Session.extended_solves;
  Alcotest.(check int) "cached hits" 2 stats.Online.Session.cached_hits;
  check_same_result ~ctx:"paths final" (Online.Session.solve session)
    (Online.run ~m:4 ~scale:100 (Online.Session.arrivals session))

let test_session_budgets () =
  let session =
    Online.Session.create ~max_jobs:2 ~max_volume:5 ~m:4 ~scale:100 ()
  in
  let arrival size = { Online.release = 0; size; req = 10 } in
  (match Online.Session.add session (arrival 3) with
  | Ok 0 -> ()
  | _ -> Alcotest.fail "first add should land at position 0");
  (match Online.Session.add session (arrival 3) with
  | Error (Online.Session.Volume_budget { cap = 5; volume = 3 }) -> ()
  | Ok _ -> Alcotest.fail "volume budget not enforced"
  | Error r -> Alcotest.failf "wrong reject: %s" (Online.Session.reject_message r));
  (match Online.Session.add session (arrival 2) with
  | Ok 1 -> ()
  | _ -> Alcotest.fail "fitting job rejected");
  (match Online.Session.add session (arrival 1) with
  | Error (Online.Session.Jobs_budget { cap = 2 }) -> ()
  | Ok _ -> Alcotest.fail "job budget not enforced"
  | Error r -> Alcotest.failf "wrong reject: %s" (Online.Session.reject_message r));
  (match Online.Session.add session { Online.release = -1; size = 1; req = 1 } with
  | Error (Online.Session.Bad_arrival _) -> ()
  | _ -> Alcotest.fail "negative release admitted");
  (* Rejections left the session untouched: still solvable, two jobs. *)
  Alcotest.(check int) "jobs" 2 (Online.Session.jobs session);
  Alcotest.(check int) "volume" 5 (Online.Session.volume session);
  check_same_result ~ctx:"budget final" (Online.Session.solve session)
    (Online.run ~m:4 ~scale:100 (Online.Session.arrivals session))

let test_session_peek_and_dirty () =
  let session = Online.Session.create ~m:4 ~scale:100 () in
  Alcotest.(check bool) "fresh session is dirty" true (Online.Session.dirty session);
  Alcotest.(check bool) "no peek yet" true (Online.Session.peek session = None);
  (match Online.Session.add session { Online.release = 0; size = 2; req = 50 } with
  | Ok _ -> ()
  | Error r -> Alcotest.failf "reject: %s" (Online.Session.reject_message r));
  let r = Online.Session.solve session in
  Alcotest.(check bool) "clean after solve" false (Online.Session.dirty session);
  (match Online.Session.peek session with
  | Some p -> Alcotest.(check int) "peek = last solve" r.Online.makespan p.Online.makespan
  | None -> Alcotest.fail "peek empty after solve");
  (match Online.Session.add session { Online.release = 0; size = 2; req = 50 } with
  | Ok _ -> ()
  | Error r -> Alcotest.failf "reject: %s" (Online.Session.reject_message r));
  Alcotest.(check bool) "dirty after add" true (Online.Session.dirty session);
  (* peek still answers with the stale committed schedule *)
  (match Online.Session.peek session with
  | Some p -> Alcotest.(check int) "stale peek" r.Online.makespan p.Online.makespan
  | None -> Alcotest.fail "peek lost on add")

(* --- the event-driven engine against the seed semantics --- *)

let expanded_steps (r : Online.result) = (Schedule.expand r.Online.schedule).Schedule.steps

let check_against_oracle ~ctx ~m ~scale (r : Online.result) arrivals =
  let o = Online_oracle.run ~m ~scale arrivals in
  Alcotest.(check string)
    (ctx ^ ": instance")
    (Instance.to_string o.Online.instance)
    (Instance.to_string r.Online.instance);
  Alcotest.(check int) (ctx ^ ": makespan") o.Online.makespan r.Online.makespan;
  Alcotest.(check (array int)) (ctx ^ ": start times") o.Online.start_times r.Online.start_times;
  if expanded_steps r <> o.Online.schedule.Schedule.steps then
    Alcotest.failf "%s: unit steps differ from the seed engine" ctx

(* Early releases rewrite history; late ones extend it. *)
let oracle_arrivals rng =
  List.init (Rng.int_in rng 1 25) (fun i ->
      let release =
        if Rng.int_in rng 0 2 = 0 then Rng.int_in rng 0 10 else Rng.int_in rng 0 (12 * (i + 1))
      in
      { Online.release; size = Rng.int_in rng 1 50; req = Rng.int_in rng 1 120 })

let qcheck_matches_oracle =
  Helpers.qcheck ~count:150 "incremental solves equal the seed engine, unit step by unit step"
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let m = Rng.int_in rng 2 8 in
      let arrivals = oracle_arrivals rng in
      let session = Online.Session.create ~m ~scale:100 () in
      List.iteri
        (fun i a ->
          ignore (Online.Session.add session a);
          if i = List.length arrivals - 1 || Rng.int_in rng 0 2 = 0 then
            check_against_oracle
              ~ctx:(Printf.sprintf "seed %d prefix %d" seed (i + 1))
              ~m ~scale:100 (Online.Session.solve session) (Online.Session.arrivals session))
        arrivals;
      true)

let test_batch_fifo_admission () =
  (* m = 3 admits at most two jobs. At t = 0 job 0 (req 10) and job 1
     (req 30) start and job 2 (req 40) is passed over; job 3 (req 20) is
     released at t = 1, when one slot frees. Batch-FIFO offers job 2
     first; a global smallest-req order would start job 3 at 1 and job 2
     at 2. Expected values are the seed engine's (by submission position:
     0, 0, 1, 2). *)
  let arrivals =
    [
      { Online.release = 0; size = 10; req = 10 };
      { Online.release = 0; size = 1; req = 30 };
      { Online.release = 0; size = 1; req = 40 };
      { Online.release = 1; size = 1; req = 20 };
    ]
  in
  let r = Online.run ~m:3 ~scale:100 arrivals in
  (* instance ids sort by req: 0 → job 0, 1 → job 3, 2 → job 1, 3 → job 2 *)
  Alcotest.(check (array int)) "start times by id" [| 0; 2; 0; 1 |] r.Online.start_times;
  Alcotest.(check int) "makespan" 10 r.Online.makespan;
  check_against_oracle ~ctx:"batch-FIFO" ~m:3 ~scale:100 r arrivals

let test_iterations_polynomial () =
  (* The event-driven engine's iterations depend on n, not on the job
     sizes: a from-scratch solve takes at most 4n + 4 of them even with
     sizes up to 10^6 (the unit-step engine needed more than 10^6). *)
  for seed = 1 to 40 do
    let rng = Rng.create (seed * 313) in
    let m = Rng.int_in rng 2 12 in
    let n = Rng.int_in rng 1 60 in
    let session = Online.Session.create ~m ~scale:1000 () in
    for _ = 1 to n do
      ignore
        (Online.Session.add session
           {
             Online.release = Rng.int_in rng 0 2_000_000;
             size = Rng.int_in rng 1 1_000_000;
             req = Rng.int_in rng 1 1000;
           })
    done;
    let r = Online.Session.solve session in
    let st = Online.Session.stats session in
    Alcotest.(check int) "one full solve" 1 st.Online.Session.full_solves;
    if st.Online.Session.iterations > (4 * n) + 4 then
      Alcotest.failf "seed %d: %d iterations for n = %d (makespan %d)" seed
        st.Online.Session.iterations n r.Online.makespan
  done

let test_session_rewound_path () =
  (* m = 3 runs two jobs at a time: four jobs released at 0 start at 0
     and 4, finishing at 8. A job released at 5 cannot change anything
     before the admissions at step 4, so the solve resumes from that
     checkpoint: neither from 0 nor from the frontier. *)
  let session = Online.Session.create ~m:3 ~scale:100 () in
  let add release req =
    match Online.Session.add session { Online.release; size = 4; req } with
    | Ok _ -> ()
    | Error r -> Alcotest.failf "reject: %s" (Online.Session.reject_message r)
  in
  List.iter (fun _ -> add 0 30) [ 1; 2; 3; 4 ];
  Alcotest.(check int) "frontier" 8 (Online.Session.solve session).Online.makespan;
  add 5 10;
  let r = Online.Session.solve session in
  let st = Online.Session.stats session in
  Alcotest.(check int) "full solves" 1 st.Online.Session.full_solves;
  Alcotest.(check int) "rewound solves" 1 st.Online.Session.rewound_solves;
  Alcotest.(check int) "extended solves" 0 st.Online.Session.extended_solves;
  check_same_result ~ctx:"rewound" r (Online.run ~m:3 ~scale:100 (Online.Session.arrivals session));
  check_against_oracle ~ctx:"rewound" ~m:3 ~scale:100 r (Online.Session.arrivals session);
  Alcotest.(check (option (pair int int)))
    "committed" (Some (5, r.Online.makespan)) (Online.Session.committed session);
  Alcotest.(check int) "start by position" 8 (Online.Session.start session 4)

let qcheck_session_lower_bound =
  (* Huge requirements make Σ p·r overflow; m = 1 is invalid. Either way
     the session's O(1) bound must raise exactly what the list-based
     [Online.lower_bound] raises. *)
  Helpers.qcheck ~count:300 "Session.lower_bound equals Online.lower_bound"
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let m = Rng.int_in rng 1 8 and scale = Rng.int_in rng 1 200 in
      let session = Online.Session.create ~m ~scale () in
      for _ = 1 to Rng.int_in rng 0 12 do
        let req =
          if Rng.int_in rng 0 5 = 0 then (max_int / 4) + Rng.int_in rng 0 1000
          else Rng.int_in rng 1 300
        in
        ignore
          (Online.Session.add session
             { Online.release = Rng.int_in rng 0 50; size = Rng.int_in rng 1 20; req })
      done;
      let outcome f = match f () with lb -> Ok lb | exception e -> Error e in
      let kept = outcome (fun () -> Online.Session.lower_bound session) in
      let listed =
        outcome (fun () -> Online.lower_bound ~m ~scale (Online.Session.arrivals session))
      in
      if kept <> listed then
        QCheck.Test.fail_reportf "seed %d: session %s, list %s" seed
          (match kept with Ok v -> string_of_int v | Error e -> Printexc.to_string e)
          (match listed with Ok v -> string_of_int v | Error e -> Printexc.to_string e);
      true)

let test_session_lower_bound_overflow () =
  let session = Online.Session.create ~m:4 ~scale:100 () in
  ignore (Online.Session.add session { Online.release = 0; size = 3; req = max_int / 2 });
  match Online.Session.lower_bound session with
  | _ -> Alcotest.fail "overflowing Σ p·r must raise"
  | exception Robust.Failure.Invalid (Robust.Failure.Overflow _) -> ()

(* --- SVG --- *)

let test_svg_well_formed () =
  let inst = Instance.create ~m:3 ~scale:10 [ (2, 3); (2, 4); (1, 8); (3, 2) ] in
  let sched = Listing1.run inst in
  let svg = Svg.render ~title:"test" sched in
  let count_sub sub =
    let n = String.length sub and m = String.length svg in
    let rec go i acc =
      if i + n > m then acc
      else go (i + 1) (if String.sub svg i n = sub then acc + 1 else acc)
    in
    go 0 0
  in
  Alcotest.(check int) "one svg root open" 1 (count_sub "<svg ");
  Alcotest.(check int) "one svg root close" 1 (count_sub "</svg>");
  (* one bar per job + m background rows + utilization bars *)
  Alcotest.(check bool) "has job bars" true (count_sub "<title>job" = 4);
  Alcotest.(check bool) "has rects" true (count_sub "<rect" >= 4 + 3);
  Alcotest.(check bool) "mentions title" true (count_sub ">test</text>" = 1)

let test_svg_to_file () =
  let inst = Instance.create ~m:2 ~scale:10 [ (1, 5); (1, 5) ] in
  let sched = Listing1.run inst in
  let path = Filename.temp_file "sos" ".svg" in
  Svg.render_to_file path sched;
  let contents = In_channel.with_open_text path In_channel.input_all in
  Sys.remove path;
  Alcotest.(check bool) "file written" true (String.length contents > 200)

let suite =
  ( "online",
    [
      Alcotest.test_case "all-at-zero validity & LB" `Quick
        test_online_all_at_zero_matches_offline_spirit;
      Alcotest.test_case "releases respected" `Quick test_online_respects_releases;
      Alcotest.test_case "idle then burst" `Quick test_online_idle_then_burst;
      Alcotest.test_case "ratio reasonable" `Quick test_online_ratio_reasonable;
      Alcotest.test_case "empty" `Quick test_online_empty;
      Alcotest.test_case "session matches from-scratch" `Quick
        test_session_matches_scratch;
      Alcotest.test_case "session solve paths" `Quick test_session_solve_paths;
      Alcotest.test_case "session budgets" `Quick test_session_budgets;
      Alcotest.test_case "session peek & dirty" `Quick test_session_peek_and_dirty;
      qcheck_matches_oracle;
      Alcotest.test_case "batch-FIFO admission order" `Quick test_batch_fifo_admission;
      Alcotest.test_case "iterations polynomial in n" `Quick test_iterations_polynomial;
      Alcotest.test_case "session rewound path" `Quick test_session_rewound_path;
      qcheck_session_lower_bound;
      Alcotest.test_case "session lower bound overflow" `Quick
        test_session_lower_bound_overflow;
      Alcotest.test_case "svg well-formed" `Quick test_svg_well_formed;
      Alcotest.test_case "svg to file" `Quick test_svg_to_file;
    ] )
