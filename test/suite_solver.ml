(* The solver table (Baselines.Solver): every entry sosctl can run, checked
   as a table — preconditions, schedule validity, names — plus the sosctl
   paths that read it (the unit-size precondition's exit code and error
   class, export -a literal, cancellation of the step-by-step solvers). *)

module Rng = Prelude.Rng
module F = Robust.Failure
module Solver = Baselines.Solver
open Sos

let entry name =
  match Solver.find name with Some e -> e | None -> Alcotest.failf "no solver %s" name

(* The instance turned into one that meets [e.requires]. *)
let meeting (e : Solver.t) (inst : Instance.t) =
  match e.requires with
  | Solver.Any -> inst
  | Solver.Window -> if inst.m < 3 then Instance.restrict_m inst 3 else inst
  | Solver.Unit_sizes ->
      Instance.create ~m:inst.m ~scale:inst.scale
        (Array.to_list (Array.map (fun (j : Job.t) -> (1, j.req)) inst.jobs))

let prop_every_entry_valid =
  Helpers.qcheck ~count:60 "every entry: valid schedule on instances meeting requires"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let base =
        Workload.Sos_gen.random_instance (Rng.create seed) ~max_n:12 ~max_m:6 ~max_size:6 ()
      in
      List.for_all
        (fun (e : Solver.t) ->
          let inst = meeting e base in
          let sched = e.run ~check:true inst in
          let trace = e.trace inst in
          Solver.admit e inst = Ok inst
          && Schedule.validate ~preemption_ok:e.preemptive sched = Ok ()
          (* a trace, where there is one, has one record per step *)
          && (trace = [] || List.length trace = sched.Schedule.makespan))
        Solver.all)

let test_names () =
  let names = List.map (fun (e : Solver.t) -> e.name) Solver.all in
  (* Checkpoint headers record these names, so renaming one would stop
     older journals from resuming. *)
  Alcotest.(check (list string))
    "the -a names"
    [
      "window"; "listing1"; "unit"; "unit-np"; "list-sched"; "greedy"; "naive-fracture";
      "no-move"; "literal"; "preemptive"; "fixed-assignment";
    ]
    names;
  Alcotest.(check int) "unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  let conv = Cmdliner.Arg.enum (List.map (fun n -> (n, n)) names) in
  List.iter
    (fun name ->
      (match Cmdliner.Arg.conv_parser conv name with
      | Ok parsed -> Alcotest.(check string) "enum parses the name" name parsed
      | Error (`Msg msg) -> Alcotest.fail msg);
      Alcotest.(check string) "find" name (entry name).name)
    names

let test_window_needs_three () =
  let inst = Instance.create ~m:2 ~scale:10 [ (1, 5); (2, 3) ] in
  List.iter
    (fun (e : Solver.t) ->
      if e.requires = Solver.Window then
        match Solver.admit e inst with
        | Error (F.Too_few_processors { m = 2; need = 3 }) -> ()
        | _ -> Alcotest.failf "%s: admitted m = 2" e.name)
    Solver.all;
  Alcotest.(check (list string))
    "window entries"
    [ "window"; "listing1"; "naive-fracture"; "no-move"; "literal" ]
    (List.filter_map
       (fun (e : Solver.t) -> if e.requires = Solver.Window then Some e.name else None)
       Solver.all)

(* Sorted by requirement the jobs run (4,1) (3,2) (1,9); in the caller's
   order the first non-unit job is position 1. *)
let non_unit = Instance.create ~m:3 ~scale:10 [ (1, 9); (3, 2); (4, 1) ]

let test_unit_precondition () =
  List.iter
    (fun name ->
      match Solver.admit (entry name) non_unit with
      | Error (F.Non_unit_size { job = 1; size = 3 }) -> ()
      | _ -> Alcotest.failf "%s: wrong verdict on a non-unit instance" name)
    [ "unit"; "unit-np" ];
  (* As sosctl batch runs it: the reason is raised as a taxonomy failure,
     so the engine classifies it invalid-instance and never retries it. *)
  let e = entry "unit" in
  let task () =
    (match Solver.admit e non_unit with Ok _ -> () | Error r -> raise (F.Invalid r));
    e.run ~check:false non_unit
  in
  match Engine.Batch.map ~domains:1 ~retries:3 [| task |] with
  | [| Error err |] ->
      Alcotest.(check string) "class" "invalid-instance" (F.class_name err.failure);
      Alcotest.(check int) "attempts" 1 err.attempts
  | _ -> Alcotest.fail "non-unit instance solved"

(* Three jobs with sizes near 1e6: the step-by-step solvers take seconds,
   so they must notice an expired deadline at their per-step poll. *)
let test_deadline () =
  let inst =
    Instance.create ~m:3 ~scale:100 [ (1_000_000, 40); (1_200_000, 50); (900_000, 70) ]
  in
  List.iter
    (fun (name, timeout) ->
      let e = entry name in
      let cancel = Robust.Cancel.create ~timeout () in
      let ctx = Robust.Context.make ~index:0 ~attempt:0 ~cancel in
      match Robust.Context.with_ctx ctx (fun () -> e.run ~check:false inst) with
      | _ -> Alcotest.failf "%s finished under a %gs deadline" name timeout
      | exception ex ->
          Alcotest.(check string)
            (name ^ " class") "deadline"
            (F.class_name (F.of_exn ex (Printexc.get_raw_backtrace ()))))
    [ ("listing1", 0.2); ("no-move", 0.05); ("fixed-assignment", 0.05) ]

(* ------------------------------------------------------ sosctl end to end *)

let sosctl = "../bin/sosctl/sosctl.exe"

let with_temp contents f =
  let path = Filename.temp_file "sossolver" ".txt" in
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc contents);
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

(* (exit code, stdout, stderr) *)
let run_sosctl args =
  let out = Filename.temp_file "sosctl" ".out" and err = Filename.temp_file "sosctl" ".err" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove out;
      Sys.remove err)
    (fun () ->
      let code =
        Sys.command
          (Printf.sprintf "%s %s > %s 2> %s" sosctl args (Filename.quote out)
             (Filename.quote err))
      in
      let read p = In_channel.with_open_text p In_channel.input_all in
      (code, read out, read err))

let test_cli_unit_precondition () =
  with_temp (Instance.to_string non_unit) @@ fun file ->
  List.iter
    (fun args ->
      let code, _, err = run_sosctl (args ^ " " ^ Filename.quote file) in
      Alcotest.(check int) (args ^ ": exit") 2 code;
      Alcotest.(check bool)
        (args ^ ": message") true
        (Helpers.contains err "sosctl: invalid input: job 1: processing time must be 1"))
    [ "solve -a unit"; "analyze -a unit-np"; "export -a unit -w schedule" ];
  with_temp ("@" ^ file ^ "\n") @@ fun specs ->
  let code, out, _ = run_sosctl ("batch -j 1 --retries 2 -a unit " ^ Filename.quote specs) in
  Alcotest.(check int) "batch exit" 1 code;
  Alcotest.(check bool) "batch line" true (Helpers.contains out "0 error invalid-instance line 1:")

let test_cli_export_literal () =
  let inst = Workload.Corpus.giant_dust.Workload.Corpus.instance in
  with_temp (Instance.to_string inst) @@ fun file ->
  let last_step algo =
    let _, csv, _ =
      run_sosctl (Printf.sprintf "export -a %s -w schedule-rle %s" algo (Filename.quote file))
    in
    List.fold_left
      (fun acc line ->
        match String.split_on_char ',' line with
        | t0 :: repeat :: _ -> (
            match (int_of_string_opt t0, int_of_string_opt repeat) with
            | Some t0, Some r -> max acc (t0 + r)
            | _ -> acc)
        | _ -> acc)
      0 (String.split_on_char '\n' csv)
  in
  Alcotest.(check int) "literal" (Fast.run ~variant:`Literal inst).Schedule.makespan
    (last_step "literal");
  Alcotest.(check int) "listing1" (Fast.run inst).Schedule.makespan (last_step "listing1")

let suite =
  ( "solver",
    [
      prop_every_entry_valid;
      Alcotest.test_case "names round-trip the -a enum" `Quick test_names;
      Alcotest.test_case "window entries reject m = 2" `Quick test_window_needs_three;
      Alcotest.test_case "unit precondition is invalid input" `Quick test_unit_precondition;
      Alcotest.test_case "step-by-step solvers honour deadlines" `Quick test_deadline;
      Alcotest.test_case "sosctl: unit precondition exits 2" `Quick test_cli_unit_precondition;
      Alcotest.test_case "sosctl: export -a literal" `Quick test_cli_export_literal;
    ] )
