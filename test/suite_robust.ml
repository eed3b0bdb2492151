(* Robustness layer: the failure taxonomy, strict validators, cancel
   tokens, checkpoint journal, seeded chaos injection, and the batch
   engine's retry/deadline/cancel semantics. The central properties are
   (1) malformed input is rejected with the right structured reason,
   never a stringified exception, and (2) every resilience feature
   preserves the batch determinism contract at any domain count.

   $SOS_CHAOS (an integer >= 1, set by the CI chaos leg) scales up the
   batch sizes of the fault-injection tests. *)

module Rng = Prelude.Rng
module F = Robust.Failure
module Batch = Engine.Batch

let intensity =
  match Sys.getenv_opt "SOS_CHAOS" with
  | Some s -> (match int_of_string_opt s with Some v when v >= 1 -> v | _ -> 1)
  | None -> 1

let with_chaos rules f =
  Robust.Chaos.arm_rules ~seed:0x5eed rules;
  Fun.protect ~finally:Robust.Chaos.disarm f

let class_name_of (e : Batch.error) = F.class_name e.failure

(* ------------------------------------------------------------ validators *)

let test_malformed_rejected =
  Helpers.qcheck ~count:300 "strict validators reject malformed instances"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let expect, case = Workload.Malformed.sample (Rng.create (seed + 1)) in
      match Workload.Malformed.run case with
      | Ok _ ->
          QCheck.Test.fail_reportf "accepted %s (expected %s)"
            (Workload.Malformed.describe case)
            (Workload.Malformed.expect_name expect)
      | Error reason ->
          if not (Workload.Malformed.matches expect reason) then
            QCheck.Test.fail_reportf "%s rejected as %S, expected class %s"
              (Workload.Malformed.describe case)
              (F.invalid_to_string reason)
              (Workload.Malformed.expect_name expect)
          else true)

let test_overflow_guard () =
  (* Two jobs of p_j ≈ max_int/2 overflow Σ p_j; the Equation (1) lower
     bound must be a structured Overflow, never silently negative. *)
  let huge = (max_int / 2) + 1 in
  let inst = Sos.Instance.create ~m:4 ~scale:10 [ (huge, 1); (huge, 1) ] in
  (match Sos.Instance.validate inst with
  | Error (F.Overflow _) -> ()
  | Error r -> Alcotest.failf "wrong reason: %s" (F.invalid_to_string r)
  | Ok _ -> Alcotest.fail "validate accepted an overflowing instance");
  (match Sos.Bounds.lower_bound_checked inst with
  | Error (F.Overflow _) -> ()
  | Error r -> Alcotest.failf "wrong reason: %s" (F.invalid_to_string r)
  | Ok lb -> Alcotest.failf "lower_bound_checked returned %d" lb);
  (match Sos.Bounds.lower_bound inst with
  | exception F.Invalid (F.Overflow _) -> ()
  | lb -> Alcotest.failf "lower_bound returned %d instead of raising" lb);
  (* One job whose p_j·r_j wraps is caught per-job by create_checked. *)
  (match Sos.Instance.create_checked ~m:4 ~scale:10 [ (huge, 2) ] with
  | Error (F.Overflow _) -> ()
  | Error r -> Alcotest.failf "wrong reason: %s" (F.invalid_to_string r)
  | Ok _ -> Alcotest.fail "create_checked accepted p_j*r_j overflow");
  (* A merely large but in-range instance still validates and has a
     positive bound. *)
  let ok = Sos.Instance.create ~m:4 ~scale:10 [ (max_int / 4, 1); (1000, 3) ] in
  (match Sos.Instance.validate ok with
  | Ok _ -> ()
  | Error r -> Alcotest.failf "rejected in-range instance: %s" (F.invalid_to_string r));
  Alcotest.(check bool) "in-range bound positive" true (Sos.Bounds.lower_bound ok > 0)

let test_checked_constructors () =
  (match Sos.Instance.of_floats_checked ~m:4 ~scale:100 [ (2, Float.nan) ] with
  | Error (F.Not_finite { job = 0; _ }) -> ()
  | _ -> Alcotest.fail "NaN share not rejected as Not_finite");
  (match Sos.Instance.of_floats_checked ~m:4 ~scale:100 [ (2, 0.5); (1, -3.0) ] with
  | Error (F.Nonpositive_req { job = 1; _ }) -> ()
  | _ -> Alcotest.fail "negative share not rejected as Nonpositive_req");
  (match Sos.Instance.of_string_checked "not an instance" with
  | Error (F.Malformed _) -> ()
  | _ -> Alcotest.fail "garbage text not rejected as Malformed");
  (match Sos.Instance.create_checked ~m:1 ~scale:10 [ (1, 1) ] with
  | Error (F.Too_few_processors { need = 2; _ }) -> ()
  | _ -> Alcotest.fail "m=1 not rejected");
  (match Sos.Instance.create_checked ~window:true ~m:2 ~scale:10 [ (1, 1) ] with
  | Error (F.Too_few_processors { need = 3; _ }) -> ()
  | _ -> Alcotest.fail "m=2 under window not rejected with need=3");
  (match Sos.Instance.create_checked ~m:4 ~scale:0 [ (1, 1) ] with
  | Error (F.Bad_scale 0) -> ()
  | _ -> Alcotest.fail "scale=0 not rejected");
  (* The window check is an entry-point policy, not structural: the same
     m=2 instance is fine without it. *)
  match Sos.Instance.create_checked ~m:2 ~scale:10 [ (1, 1) ] with
  | Ok _ -> ()
  | Error r -> Alcotest.failf "m=2 rejected without window: %s" (F.invalid_to_string r)

(* -------------------------------------------------------------- create3 *)

let test_rng_create3 () =
  let a = Rng.create3 1 2 3 and b = Rng.create3 1 2 3 in
  Alcotest.(check bool) "same triple, same stream" true (Rng.bits64 a = Rng.bits64 b);
  let seen = Hashtbl.create 256 in
  for base = 0 to 4 do
    for idx = 0 to 4 do
      for att = 0 to 4 do
        let v = Rng.bits64 (Rng.create3 base idx att) in
        Alcotest.(check bool)
          (Printf.sprintf "triple (%d,%d,%d) collides" base idx att)
          false (Hashtbl.mem seen v);
        Hashtbl.replace seen v ()
      done
    done
  done

(* ------------------------------------------------------ cancel + context *)

let test_cancel_tokens () =
  let t = Robust.Cancel.create () in
  Alcotest.(check bool) "fresh token not cancelled" false (Robust.Cancel.cancelled t);
  Robust.Cancel.check t;
  Robust.Cancel.cancel t;
  Alcotest.(check bool) "cancelled after cancel" true (Robust.Cancel.cancelled t);
  (match Robust.Cancel.check t with
  | exception F.Cancel_requested -> ()
  | () -> Alcotest.fail "check did not raise after cancel");
  (* Child observes an ancestor's cancellation; cancelling a child leaves
     the parent alone. *)
  let parent = Robust.Cancel.create () in
  let child = Robust.Cancel.create ~parent () in
  Robust.Cancel.cancel parent;
  Alcotest.(check bool) "child sees parent cancel" true (Robust.Cancel.cancelled child);
  let p2 = Robust.Cancel.create () in
  let c2 = Robust.Cancel.create ~parent:p2 () in
  Robust.Cancel.cancel c2;
  Alcotest.(check bool) "parent unaffected by child" false (Robust.Cancel.cancelled p2);
  (* Deadlines are observed by check, with the timeout in the exception. *)
  let d = Robust.Cancel.create ~timeout:0.01 () in
  Robust.Cancel.check d;
  Unix.sleepf 0.02;
  (match Robust.Cancel.check d with
  | exception F.Deadline t -> Alcotest.(check (float 1e-9)) "timeout carried" 0.01 t
  | () -> Alcotest.fail "deadline did not fire");
  match Robust.Cancel.create ~timeout:0.0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "timeout=0 accepted"

let test_context_scope () =
  Alcotest.(check int) "index outside scope" (-1) (Robust.Context.index ());
  Alcotest.(check int) "attempt outside scope" 0 (Robust.Context.attempt ());
  Robust.Context.poll ();
  let cancel = Robust.Cancel.create () in
  let ctx = Robust.Context.make ~index:7 ~attempt:2 ~cancel in
  Robust.Context.with_ctx ctx (fun () ->
      Alcotest.(check int) "index inside" 7 (Robust.Context.index ());
      Alcotest.(check int) "attempt inside" 2 (Robust.Context.attempt ());
      Robust.Context.poll ();
      let inner = Robust.Context.make ~index:9 ~attempt:0 ~cancel:Robust.Cancel.none in
      Robust.Context.with_ctx inner (fun () ->
          Alcotest.(check int) "nested index" 9 (Robust.Context.index ()));
      Alcotest.(check int) "restored after nesting" 7 (Robust.Context.index ());
      Robust.Cancel.cancel cancel;
      match Robust.Context.poll () with
      | exception F.Cancel_requested -> ()
      | () -> Alcotest.fail "poll ignored a cancelled scope");
  Alcotest.(check int) "restored outside" (-1) (Robust.Context.index ())

(* -------------------------------------------------------------- journal *)

let with_temp_journal f =
  let path = Filename.temp_file "sosj" ".journal" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

(* A one-shard journal lives at PATH itself, in the plain single-file
   format: the header line, then "<index> <md5> <payload>" per entry. *)
module Sharded = Robust.Journal.Sharded

let test_journal_roundtrip () =
  with_temp_journal @@ fun path ->
  let header = "sosj1 seed=7 algo=window specs=abc" in
  let j = Sharded.start ~path ~shards:1 ~header () in
  Sharded.append j ~index:0 ~payload:"0 ok bimodal makespan=12";
  Sharded.append j ~index:2 ~payload:"2 error task-exn line 3: boom";
  (* Newlines in payloads would corrupt the line format. *)
  (match Sharded.append j ~index:3 ~payload:"a\nb" with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "newline payload accepted");
  Sharded.close j;
  let line i p = Printf.sprintf "%d %s %s\n" i (Robust.Journal.digest p) p in
  Alcotest.(check string) "file format"
    (header ^ "\n" ^ line 0 "0 ok bimodal makespan=12"
    ^ line 2 "2 error task-exn line 3: boom")
    (In_channel.with_open_text path In_channel.input_all);
  (match Sharded.resume ~path ~shards:1 ~header () with
  | Ok j ->
      Alcotest.(check int) "entries" 2 (Sharded.completed j);
      Alcotest.(check (list bool)) "indices" [ true; false; true ]
        (List.map (Sharded.mem j) [ 0; 1; 2 ]);
      Alcotest.(check (option string)) "first payload" (Some "0 ok bimodal makespan=12")
        (Sharded.replay j 0);
      Sharded.close j
  | Error msg -> Alcotest.fail msg);
  (* A different header (other seed/algo/specs) must be refused. *)
  match Sharded.resume ~path ~shards:1 ~header:"sosj1 seed=8 algo=window specs=abc" () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "header mismatch accepted"

let test_journal_torn_line () =
  with_temp_journal @@ fun path ->
  let header = "sosj1 seed=1 algo=window specs=x" in
  let j = Sharded.start ~path ~shards:1 ~header () in
  Sharded.append j ~index:0 ~payload:"first";
  Sharded.append j ~index:1 ~payload:"second";
  Sharded.close j;
  (* Simulate a SIGKILL mid-append: a trailing half-entry with no
     newline and a wrong digest. *)
  let oc = Out_channel.open_gen [ Open_append; Open_text ] 0o644 path in
  Out_channel.output_string oc "2 0123456789abcdef t";
  Out_channel.close oc;
  (match Sharded.resume ~path ~shards:1 ~header () with
  | Ok j ->
      Alcotest.(check (list bool)) "torn line skipped" [ true; true; false ]
        (List.map (Sharded.mem j) [ 0; 1; 2 ]);
      (* the torn tail is gone, so the next append lands on a clean line *)
      Sharded.append j ~index:2 ~payload:"third";
      Sharded.close j
  | Error msg -> Alcotest.fail msg);
  match Sharded.resume ~path ~shards:1 ~header () with
  | Ok j ->
      Alcotest.(check (list (option string))) "appended after torn tail"
        [ Some "first"; Some "second"; Some "third" ]
        (List.map (Sharded.replay j) [ 0; 1; 2 ]);
      Sharded.close j
  | Error msg -> Alcotest.fail msg

(* ------------------------------------------------------ sharded journal *)

let with_temp_sharded shards f =
  let base = Filename.temp_file "sosjsh" ".journal" in
  Fun.protect
    ~finally:(fun () ->
      let rm p = try Sys.remove p with Sys_error _ -> () in
      rm base;
      for k = 0 to shards - 1 do
        rm (Printf.sprintf "%s.%d" base k)
      done)
    (fun () -> f base)

let test_sharded_roundtrip () =
  with_temp_sharded 3 @@ fun base ->
  let header = "sosj1 seed=7 algo=fast specs=abc" in
  let j = Sharded.start ~path:base ~shards:3 ~sync_every:4 ~header () in
  Alcotest.(check int) "shards" 3 (Sharded.shards j);
  Alcotest.(check (array string)) "shard paths"
    (Array.init 3 (Printf.sprintf "%s.%d" base))
    (Sharded.paths j);
  for i = 0 to 10 do
    Sharded.append j ~index:i ~payload:(Printf.sprintf "%d ok payload" i)
  done;
  (* sync_every=4 buffers appends; close must flush them all out. *)
  Sharded.close j;
  (match Sharded.resume ~path:base ~shards:3 ~sync_every:4 ~header () with
  | Error msg -> Alcotest.fail msg
  | Ok j ->
      Alcotest.(check int) "completed" 11 (Sharded.completed j);
      for i = 0 to 10 do
        Alcotest.(check bool) (Printf.sprintf "mem %d" i) true (Sharded.mem j i);
        (* replay in increasing index order, across all shards *)
        match Sharded.replay j i with
        | Some p ->
            Alcotest.(check string) "replayed payload" (Printf.sprintf "%d ok payload" i) p
        | None -> Alcotest.failf "no payload for %d" i
      done;
      Alcotest.(check bool) "mem beyond end" false (Sharded.mem j 11);
      Alcotest.(check bool) "replay beyond end" true (Sharded.replay j 11 = None);
      (* Fresh appends on a resumed journal extend it... *)
      Sharded.append j ~index:11 ~payload:"11 ok payload";
      Alcotest.(check bool) "fresh append not in resume bitset" false (Sharded.mem j 11);
      Sharded.close j);
  match Sharded.resume ~path:base ~shards:3 ~header () with
  | Error msg -> Alcotest.fail msg
  | Ok j ->
      Alcotest.(check int) "completed after second run" 12 (Sharded.completed j);
      Sharded.close j

let test_sharded_header_binding () =
  with_temp_sharded 2 @@ fun base ->
  let header = "sosj1 seed=1 algo=fast specs=x" in
  let j = Sharded.start ~path:base ~shards:2 ~header () in
  Sharded.append j ~index:0 ~payload:"zero";
  Sharded.close j;
  (* Another seed must be refused... *)
  (match Sharded.resume ~path:base ~shards:2 ~header:"sosj1 seed=2 algo=fast specs=x" () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "header mismatch accepted");
  (* ...and so must another shard count: the per-shard header suffix
     changes, so shard 0 of a 2-shard journal never resumes as 1-shard. *)
  match Sharded.resume ~path:(base ^ ".0") ~shards:1 ~header () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "shard-count mismatch accepted"

let test_sharded_torn_tails () =
  with_temp_sharded 2 @@ fun base ->
  let header = "sosj1 seed=3 algo=fast specs=y" in
  let j = Sharded.start ~path:base ~shards:2 ~header () in
  for i = 0 to 5 do
    Sharded.append j ~index:i ~payload:(Printf.sprintf "out-%d" i)
  done;
  Sharded.close j;
  (* Simulate SIGKILL mid-append on both shards: a half-written entry
     with no newline on shard 0, a wrong-digest line on shard 1. *)
  let scribble path text =
    let oc = Out_channel.open_gen [ Open_append; Open_text ] 0o644 path in
    Out_channel.output_string oc text;
    Out_channel.close oc
  in
  scribble (base ^ ".0") "8 0123456789abcdef tor";
  scribble (base ^ ".1") "9 0123456789abcdef0123456789abcdef bad-digest\n";
  match Sharded.resume ~path:base ~shards:2 ~header () with
  | Error msg -> Alcotest.fail msg
  | Ok j ->
      (* The torn/corrupt lines are dropped by compaction; the six clean
         entries survive and replay in order. *)
      Alcotest.(check int) "completed after torn tails" 6 (Sharded.completed j);
      for i = 0 to 5 do
        Alcotest.(check (option string))
          (Printf.sprintf "replay %d" i)
          (Some (Printf.sprintf "out-%d" i))
          (Sharded.replay j i)
      done;
      Alcotest.(check bool) "torn index not recorded" false (Sharded.mem j 8);
      Sharded.close j;
      (* Compaction rewrote the shard files: resuming again finds exactly
         the same clean state. *)
      (match Sharded.resume ~path:base ~shards:2 ~header () with
      | Ok j2 ->
          Alcotest.(check int) "stable after recompaction" 6 (Sharded.completed j2);
          Sharded.close j2
      | Error msg -> Alcotest.fail msg)

let test_sharded_out_of_order_replay () =
  (* The SIGINT scenario: an interrupted run journals nothing for a
     cancelled index (the gap) while later in-flight indices are
     journalled; the first --resume re-runs the gap and appends it AFTER
     the higher-index entries, leaving the shard index-unsorted. A second
     --resume must still replay every completed index byte-identically —
     the forward cursor must neither lose the gap entry (it sits behind
     the cursor after the overshoot) nor consume the overshot entry. *)
  with_temp_sharded 2 @@ fun base ->
  let header = "sosj1 seed=11 algo=fast specs=z" in
  let payload i = Printf.sprintf "out-%d" i in
  let j = Sharded.start ~path:base ~shards:2 ~header () in
  (* Run 1, interrupted: indices 2 and 5 cancelled (nothing journalled),
     later in-flight indices journalled in emission order. *)
  List.iter (fun i -> Sharded.append j ~index:i ~payload:(payload i)) [ 0; 1; 3; 4; 6; 7 ];
  Sharded.close j;
  (* First resume: gaps re-run and appended after higher indices. *)
  (match Sharded.resume ~path:base ~shards:2 ~header () with
  | Error msg -> Alcotest.fail msg
  | Ok j ->
      Alcotest.(check int) "completed after run 1" 6 (Sharded.completed j);
      List.iter
        (fun i ->
          if Sharded.mem j i then
            Alcotest.(check (option string))
              (Printf.sprintf "first resume replay %d" i)
              (Some (payload i)) (Sharded.replay j i)
          else Sharded.append j ~index:i ~payload:(payload i))
        [ 0; 1; 2; 3; 4; 5; 6; 7 ];
      Sharded.close j);
  (* Second resume: shard 0 is now [0;4;6;2], shard 1 [1;3;7;5]. Every
     index must replay, in ordered-emission order. *)
  match Sharded.resume ~path:base ~shards:2 ~header () with
  | Error msg -> Alcotest.fail msg
  | Ok j ->
      Alcotest.(check int) "completed after gap fill" 8 (Sharded.completed j);
      for i = 0 to 7 do
        Alcotest.(check (option string))
          (Printf.sprintf "second resume replay %d" i)
          (Some (payload i)) (Sharded.replay j i)
      done;
      Sharded.close j

(* ----------------------------------------------------- batch resilience *)

let test_retry_recovers () =
  (* Tasks at the fail indices raise on attempts 0..1 (via the ambient
     context); retries=2 reaches attempt 2 and must produce exactly the
     clean run's results — at every domain count. *)
  let n = 24 in
  let fail_at i = i mod 5 = 1 in
  let tasks =
    Array.init n (fun i () ->
        if fail_at i && Robust.Context.attempt () < 2 then failwith "flaky";
        i * i)
  in
  let clean = Array.init n (fun i -> Ok (i * i)) in
  List.iter
    (fun domains ->
      let got = Batch.map ~domains ~retries:2 tasks in
      Alcotest.(check bool)
        (Printf.sprintf "retried run equals clean run at %d domains" domains)
        true
        (got = clean))
    [ 1; 2; 4 ];
  (* With too few retries the error records every attempt made. *)
  match Batch.map ~domains:2 ~retries:1 tasks with
  | outcomes -> (
      match outcomes.(1) with
      | Error e ->
          Alcotest.(check string) "class" "task-exn" (class_name_of e);
          Alcotest.(check int) "attempts recorded" 2 e.Batch.attempts
      | Ok _ -> Alcotest.fail "expected index 1 to fail with retries=1")

let test_invalid_never_retried () =
  let attempts_seen = Atomic.make 0 in
  let tasks =
    [|
      (fun () ->
        Atomic.incr attempts_seen;
        raise (F.Invalid (F.Bad_scale 0)));
    |]
  in
  match Batch.map ~domains:2 ~retries:5 tasks with
  | [| Error e |] ->
      Alcotest.(check string) "class" "invalid-instance" (class_name_of e);
      Alcotest.(check int) "single attempt" 1 e.Batch.attempts;
      Alcotest.(check int) "task ran once" 1 (Atomic.get attempts_seen)
  | _ -> Alcotest.fail "expected one error"

let test_task_deadline () =
  (* A polling task that outlives its deadline fails with the deadline
     class; one that finishes in time is untouched. *)
  let tasks =
    [|
      (fun () ->
        let stop =
          (Unix.gettimeofday () [@sos.allow "R2: deadline test must outlive real wall-clock time; Prelude.Clock is the unit under test's view, not the harness's"])
          +. 5.0
        in
        while
          (Unix.gettimeofday () [@sos.allow "R2: deadline test must outlive real wall-clock time; Prelude.Clock is the unit under test's view, not the harness's"])
          < stop
        do
          Robust.Context.poll ();
          Unix.sleepf 0.002
        done;
        0);
      (fun () -> 41);
    |]
  in
  match Batch.map ~domains:2 ~task_timeout:0.05 tasks with
  | [| Error e; Ok 41 |] ->
      Alcotest.(check string) "class" "deadline" (class_name_of e);
      Alcotest.(check bool) "deadline is transient" true (F.transient e.Batch.failure)
  | [| a; b |] ->
      Alcotest.failf "unexpected outcomes: %s / %s"
        (match a with Ok v -> string_of_int v | Error e -> class_name_of e)
        (match b with Ok v -> string_of_int v | Error e -> class_name_of e)
  | _ -> Alcotest.fail "wrong arity"

let test_cancelled_batch () =
  (* A token cancelled up front: every task fails Cancelled without its
     body ever running, and the outcome is deterministic. *)
  let ran = Atomic.make 0 in
  let cancel = Robust.Cancel.create () in
  Robust.Cancel.cancel cancel;
  let tasks = Array.init 10 (fun i () -> Atomic.incr ran; i) in
  let outcomes = Batch.map ~domains:3 ~cancel tasks in
  Alcotest.(check int) "no task body ran" 0 (Atomic.get ran);
  Array.iter
    (function
      | Error e -> Alcotest.(check string) "class" "cancelled" (class_name_of e)
      | Ok _ -> Alcotest.fail "task succeeded under a cancelled token")
    outcomes

(* ---------------------------------------------------------------- chaos *)

let test_chaos_parse () =
  (match Robust.Chaos.parse "sos.fast.run@3,19,35:attempts=2; engine.pool.worker~0.25" with
  | Ok [ (s1, Robust.Chaos.Fail_indices { indices = [ 3; 19; 35 ]; attempts = 2 });
         (s2, Robust.Chaos.Fail_prob p) ] ->
      Alcotest.(check string) "site 1" "sos.fast.run" s1;
      Alcotest.(check string) "site 2" "engine.pool.worker" s2;
      Alcotest.(check (float 1e-9)) "prob" 0.25 p
  | Ok _ -> Alcotest.fail "parsed into unexpected rules"
  | Error msg -> Alcotest.fail msg);
  (match Robust.Chaos.parse "sos.fast.step+0.5~0.1" with
  | Ok [ (_, Robust.Chaos.Delay { seconds; prob }) ] ->
      Alcotest.(check (float 1e-9)) "seconds" 0.5 seconds;
      Alcotest.(check (float 1e-9)) "prob" 0.1 prob
  | Ok _ -> Alcotest.fail "parsed into unexpected rules"
  | Error msg -> Alcotest.fail msg);
  List.iter
    (fun bad ->
      match Robust.Chaos.parse bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted bad spec %S" bad)
    [ "siteonly"; "s@x"; "s~2.0"; "s@1:attempts=0"; "s+abc" ];
  Alcotest.(check bool) "disarmed by default" false (Robust.Chaos.armed ())

let test_chaos_indices_deterministic () =
  (* Index-targeted injection at the batch task site: exactly the listed
     indices fail, identically at every domain count. *)
  let n = 16 * intensity in
  let targets = [ 1; 5; 11 ] in
  with_chaos [ ("engine.batch.task", Robust.Chaos.Fail_indices { indices = targets; attempts = max_int }) ]
  @@ fun () ->
  let tasks = Array.init n (fun i () -> i + 100) in
  let reference = Batch.map ~domains:1 tasks in
  Array.iteri
    (fun i r ->
      match r with
      | Ok v ->
          Alcotest.(check bool) "untargeted ok" false (List.mem i targets);
          Alcotest.(check int) "value" (i + 100) v
      | Error e ->
          Alcotest.(check bool) "targeted error" true (List.mem i targets);
          Alcotest.(check string) "class" "task-exn" (class_name_of e))
    reference;
  List.iter
    (fun domains ->
      let got = Batch.map ~domains tasks in
      let same =
        Array.for_all2
          (fun a b ->
            match (a, b) with
            | Ok x, Ok y -> x = y
            | Error (e1 : Batch.error), Error e2 -> class_name_of e1 = class_name_of e2
            | _ -> false)
          got reference
      in
      Alcotest.(check bool)
        (Printf.sprintf "chaos pattern identical at %d domains" domains)
        true same)
    [ 2; 4 ]

let test_chaos_prob_deterministic () =
  (* Probabilistic in-scope draws are keyed by (seed, site, index,
     attempt, hit) — so the error pattern is a pure function of the
     configuration, not of the domain count. *)
  let n = 32 * intensity in
  let pattern domains =
    with_chaos [ ("engine.batch.task", Robust.Chaos.Fail_prob 0.4) ] @@ fun () ->
    Batch.map ~domains (Array.init n (fun i () -> i))
    |> Array.map (function Ok _ -> 'o' | Error _ -> 'x')
    |> Array.to_seq |> String.of_seq
  in
  let p1 = pattern 1 in
  Alcotest.(check bool) "some injected" true (String.contains p1 'x');
  Alcotest.(check bool) "some survived" true (String.contains p1 'o');
  Alcotest.(check string) "pattern identical at 2 domains" p1 (pattern 2);
  Alcotest.(check string) "pattern identical at 4 domains" p1 (pattern 4)

let test_chaos_retry_recovers () =
  (* attempts=1 injection + one retry: attempt 0 is killed, attempt 1
     succeeds, and the batch equals a clean run. *)
  let n = 12 * intensity in
  let tasks = Array.init n (fun i () -> 3 * i) in
  let clean = Array.init n (fun i -> Ok (3 * i)) in
  with_chaos
    [ ("engine.batch.task",
       Robust.Chaos.Fail_indices { indices = [ 2; 7; 9 ]; attempts = 1 }) ]
  @@ fun () ->
  List.iter
    (fun domains ->
      let got = Batch.map ~domains ~retries:1 tasks in
      Alcotest.(check bool)
        (Printf.sprintf "chaos+retry equals clean at %d domains" domains)
        true (got = clean))
    [ 1; 2; 4 ]

let test_pool_survives_worker_deaths () =
  (* Kill every worker the injector can (the last live worker refuses to
     die): the batch still completes, in order, and the pool survives a
     second batch. *)
  let n = 50 * intensity in
  with_chaos [ ("engine.pool.worker", Robust.Chaos.Fail_prob 1.0) ] @@ fun () ->
  Engine.Pool.with_pool ~domains:4 (fun pool ->
      let out = Batch.map_pool pool (Array.init n (fun i () -> i * 2)) in
      Array.iteri
        (fun i r ->
          Alcotest.(check bool)
            (Printf.sprintf "result %d ok and ordered" i)
            true (r = Ok (i * 2)))
        out;
      let again = Batch.map_pool pool (Array.init 10 (fun i () -> i + 1)) in
      Array.iteri
        (fun i r ->
          Alcotest.(check bool) "pool usable after worker deaths" true (r = Ok (i + 1)))
        again)

let test_pool_down_after_shutdown () =
  let pool = Engine.Pool.create ~domains:2 () in
  let ok = Batch.map_pool pool [| (fun () -> 1) |] in
  Alcotest.(check bool) "live pool works" true (ok = [| Ok 1 |]);
  Engine.Pool.shutdown pool;
  match Batch.map_pool pool [| (fun () -> 2) |] with
  | exception F.Pool_down _ -> ()
  | [| Error e |] when class_name_of e = "pool-crashed" -> ()
  | _ -> Alcotest.fail "submit after shutdown not surfaced as pool-crashed"

(* --- deterministic backoff + supervision --- *)

let test_backoff_policy () =
  let open Robust.Backoff in
  let p = policy ~base:0.01 ~cap:1.0 ~seed:7 () in
  Alcotest.(check bool)
    "deterministic" true
    (delay p ~index:3 ~attempt:2 = delay p ~index:3 ~attempt:2);
  (* equal jitter: attempt a draws from [d/2, d) with d = min cap (base*2^(a-1)) *)
  for attempt = 1 to 8 do
    let ideal = Float.min 1.0 (0.01 *. (2.0 ** float_of_int (attempt - 1))) in
    let d = delay p ~index:0 ~attempt in
    if not (d >= ideal /. 2.0 && d < ideal) then
      Alcotest.failf "attempt %d: delay %g outside [%g, %g)" attempt d (ideal /. 2.0)
        ideal
  done;
  (* the cap holds even for attempt counts that would overflow 2^(a-1) *)
  let d = delay p ~index:0 ~attempt:200 in
  Alcotest.(check bool) "capped at huge attempts" true (d >= 0.5 && d < 1.0);
  let d = delay p ~index:0 ~attempt:10_000 in
  Alcotest.(check bool) "capped at attempt 10000" true (d >= 0.5 && d < 1.0);
  Alcotest.(check bool) "attempt 0 is free" true (delay p ~index:0 ~attempt:0 = 0.0);
  (* per-index jitter decorrelates retry storms *)
  Alcotest.(check bool)
    "indices decorrelated" true
    (List.exists
       (fun i -> delay p ~index:i ~attempt:3 <> delay p ~index:0 ~attempt:3)
       [ 1; 2; 3; 4; 5 ]);
  (* out-of-range parameters clamp instead of raising (R6: no failwith) *)
  let q = policy ~base:(-1.0) ~cap:0.0 ~seed:0 () in
  let d = delay q ~index:0 ~attempt:1 in
  Alcotest.(check bool) "clamped policy stays finite" true (d >= 0.0 && d < 1e-5)

(* Property form of the band above, pushed to attempt counts that
   overflow a naive [1 lsl (attempt - 1)]: for any policy and any
   attempt up to 10000, the delay is finite, deterministic, and inside
   the equal-jitter band [d/2, d) with d = min cap (base * 2^(a-1))
   computed in float arithmetic (where the power overflows to infinity
   and the min saturates at cap). *)
let test_backoff_jitter_band =
  Helpers.qcheck ~count:500 "backoff: equal-jitter band holds to attempt 10000"
    QCheck.(
      quad (int_bound 9999) (int_bound 999) (int_range 1 10_000)
        (pair (float_range 1e-5 0.5) (float_range 0.6 50.0)))
    (fun (seed, index, attempt, (base, cap)) ->
      let p = Robust.Backoff.policy ~base ~cap ~seed () in
      let d = Robust.Backoff.delay p ~index ~attempt in
      let ideal = Float.min cap (base *. (2.0 ** float_of_int (attempt - 1))) in
      Float.is_finite d
      && d >= ideal /. 2.0
      && d < ideal
      && d = Robust.Backoff.delay p ~index ~attempt)

let test_supervise_restarts () =
  let backoff = Robust.Backoff.policy ~base:1e-6 ~seed:1 () in
  (* transient crashes restart up to the budget, then succeed *)
  let calls = ref 0 in
  let out =
    Robust.Supervise.run ~restarts:5 ~backoff (fun () ->
        incr calls;
        if !calls < 3 then failwith "flaky";
        !calls * 10)
  in
  (match out.Robust.Supervise.result with
  | Ok v -> Alcotest.(check int) "value" 30 v
  | Error f -> Alcotest.failf "expected success, got %s" (F.to_string f));
  Alcotest.(check int) "attempts" 3 out.Robust.Supervise.attempts;
  (* budget exhaustion reports the classified failure and every attempt *)
  let out = Robust.Supervise.run ~restarts:1 (fun () -> failwith "always") in
  (match out.Robust.Supervise.result with
  | Error f -> Alcotest.(check string) "class" "task-exn" (F.class_name f)
  | Ok _ -> Alcotest.fail "expected failure");
  Alcotest.(check int) "attempts recorded" 2 out.Robust.Supervise.attempts;
  (* permanent failures never restart *)
  let calls = ref 0 in
  let out =
    Robust.Supervise.run ~restarts:5 (fun () ->
        incr calls;
        raise (F.Invalid (F.Malformed "bad")))
  in
  (match out.Robust.Supervise.result with
  | Error f -> Alcotest.(check string) "class" "invalid-instance" (F.class_name f)
  | Ok _ -> Alcotest.fail "expected invalid");
  Alcotest.(check int) "no restart on invalid" 1 !calls;
  (* on_restart sees each failed attempt, in order *)
  let seen = ref [] in
  let calls = ref 0 in
  ignore
    (Robust.Supervise.run ~restarts:2
       ~on_restart:(fun ~attempt _ -> seen := attempt :: !seen)
       (fun () ->
         incr calls;
         if !calls < 3 then failwith "flaky"))
  ;
  Alcotest.(check (list int)) "restart callbacks" [ 1; 2 ] (List.rev !seen)

let suite =
  ( "robust",
    [
      test_malformed_rejected;
      Alcotest.test_case "Equation (1) overflow guard" `Quick test_overflow_guard;
      Alcotest.test_case "checked constructors" `Quick test_checked_constructors;
      Alcotest.test_case "rng create3" `Quick test_rng_create3;
      Alcotest.test_case "cancel tokens + deadlines" `Quick test_cancel_tokens;
      Alcotest.test_case "ambient context scope" `Quick test_context_scope;
      Alcotest.test_case "journal roundtrip + header binding" `Quick test_journal_roundtrip;
      Alcotest.test_case "journal torn-line recovery" `Quick test_journal_torn_line;
      Alcotest.test_case "sharded journal roundtrip + replay" `Quick test_sharded_roundtrip;
      Alcotest.test_case "sharded journal header binding" `Quick test_sharded_header_binding;
      Alcotest.test_case "sharded journal torn-tail compaction" `Quick test_sharded_torn_tails;
      Alcotest.test_case "sharded journal out-of-order replay" `Quick
        test_sharded_out_of_order_replay;
      Alcotest.test_case "backoff policy: jitter band, cap, determinism" `Quick
        test_backoff_policy;
      test_backoff_jitter_band;
      Alcotest.test_case "supervise restarts transient failures" `Quick
        test_supervise_restarts;
      Alcotest.test_case "retry recovers deterministically" `Quick test_retry_recovers;
      Alcotest.test_case "invalid input never retried" `Quick test_invalid_never_retried;
      Alcotest.test_case "per-task deadline" `Quick test_task_deadline;
      Alcotest.test_case "cancelled batch runs nothing" `Quick test_cancelled_batch;
      Alcotest.test_case "chaos spec grammar" `Quick test_chaos_parse;
      Alcotest.test_case "chaos index targeting deterministic" `Quick test_chaos_indices_deterministic;
      Alcotest.test_case "chaos probabilistic draws deterministic" `Quick test_chaos_prob_deterministic;
      Alcotest.test_case "chaos + retry equals clean run" `Quick test_chaos_retry_recovers;
      Alcotest.test_case "pool survives injected worker deaths" `Quick test_pool_survives_worker_deaths;
      Alcotest.test_case "pool-down after shutdown" `Quick test_pool_down_after_shutdown;
    ] )
