(* Layer 11 — soslint's whole-program analysis passes.

   Where the rules R1-R7 are per-file (suite_lint.ml), the passes A1-A4
   are interprocedural: every fixture below plants its violation at
   least one call-graph edge away from the entry point that makes it a
   violation, so the tests fail if the call graph, the per-module
   resolution, or the reachability closures break — not just the syntactic
   matchers. Same matrix as the lint suite: per pass one violating fixture
   (exact file:line listing, exit 1), one clean fixture exercising the
   interprocedural escape hatch (a callee that polls, an Atomic, a
   taxonomy carrier), and one suppressed via [@sos.allow]. The same run
   reports R1-R7 findings too, so a fixture that also breaks a per-file
   rule lists both. Plus the cross-cutting checks: byte-identical double
   runs on fixtures and on the repo's JSON report, the JSON report, the
   per-rule baseline cycle, and the per-pass counts of the repo scan. *)

open Suite_lint

let fixtures = "fixtures_analysis"

let graph_root ?(extra = "") root =
  run_lint (Printf.sprintf "--root %s/%s %s lib bin bench" fixtures root extra)

let summary_line ~files ~functions ~edges ~violations ~suppressed ~sites =
  Printf.sprintf
    "soslint: %d files, %d functions, %d edges, %d violations, %d suppressed hits via %d \
     [@sos.allow] sites\n"
    files functions edges violations suppressed sites

(* ------------------------------------------------- per-pass fixtures *)

(* (pass, violating listing, R-rule lines of the suppressed fixture,
   (files, functions, edges) per variant). Sizes differ per fixture
   because the clean variants add the callee that provides the escape
   hatch. The A1 fixtures read the wall clock directly, which R2 also
   flags. *)
let r2_line n =
  Printf.sprintf
    "lib/sos/fast.ml:%d R2 Unix.gettimeofday: wall-clock reads go through Prelude.Clock only" n

let expected =
  [
    ( "a1",
      [
        r2_line 1;
        "lib/sos/fast.ml:3 A1 det-class solver entry Sos.Fast.run is wall-clock/RNG/DLS/env \
         tainted: via Sos.Fast.run -> Sos.Fast.helper -> Sos.Fast.helper2; seed wall-clock \
         Unix.gettimeofday (lib/sos/fast.ml:1)";
      ],
      [ r2_line 2 ],
      ((1, 3, 2), (1, 3, 2), (1, 3, 2)) );
    ( "a2",
      [
        "lib/sos/fast.ml:3 A2 while loop in Sos.Fast.spin (reachable from Sos.Fast.run) never \
         reaches Robust.Context.poll/Chaos.point \xe2\x80\x94 un-cancellable";
      ],
      [],
      ((1, 2, 1), (1, 3, 3), (1, 2, 1)) );
    ( "a3",
      [
        "lib/sos/cache.ml:1 A3 module-toplevel mutable state Sos.Cache.hits (ref) is used by \
         Sos.Cache.bump, which runs on pool workers (reachable from Engine.Pool.worker): use \
         Atomic, Tls, or an explicit allow";
      ],
      [],
      ((2, 3, 2), (2, 3, 2), (2, 3, 2)) );
    ( "a4",
      [
        "lib/sos/packer.ml:1 A4 failwith in Sos.Packer.go is reachable from sosctl \
         (Sosctl.main) but maps to no Robust.Failure class";
      ],
      [],
      ((2, 2, 1), (2, 2, 1), (2, 2, 1)) );
  ]

let lines_of listing = String.concat "" (List.map (fun l -> l ^ "\n") listing)

let test_pass_violating pass listing (files, functions, edges) () =
  let code, out = graph_root (pass ^ "_bad") in
  let expected =
    lines_of listing
    ^ summary_line ~files ~functions ~edges ~violations:(List.length listing) ~suppressed:0
        ~sites:0
  in
  Alcotest.(check string) (pass ^ " listing") expected out;
  Alcotest.(check int) (pass ^ " exit") 1 code

let test_pass_clean pass (files, functions, edges) () =
  let code, out = graph_root (pass ^ "_clean") in
  Alcotest.(check string)
    (pass ^ " clean listing")
    (summary_line ~files ~functions ~edges ~violations:0 ~suppressed:0 ~sites:0)
    out;
  Alcotest.(check int) (pass ^ " clean exit") 0 code

let test_pass_allow pass r_lines (files, functions, edges) () =
  let code, out = graph_root (pass ^ "_allow") in
  Alcotest.(check string)
    (pass ^ " allow listing")
    (lines_of r_lines
    ^ summary_line ~files ~functions ~edges ~violations:(List.length r_lines) ~suppressed:1
        ~sites:1)
    out;
  Alcotest.(check int) (pass ^ " allow exit") (if r_lines = [] then 0 else 1) code

(* A closure passed inline to a function runs inside that function's loop:
   it is covered when the loop polls, and flagged with it when it does not. *)
let test_a2_callback () =
  let code, out = graph_root "a2_callback" in
  Alcotest.(check string) "covered by the callee's polling loop"
    (summary_line ~files:1 ~functions:3 ~edges:3 ~violations:0 ~suppressed:0 ~sites:0)
    out;
  Alcotest.(check int) "clean exit" 0 code;
  let code, out = graph_root "a2_callback_bad" in
  Alcotest.(check string) "flagged under a loop that does not poll"
    ("lib/sos/fast.ml:3 A2 while loop in Sos.Fast.drive (reachable from Sos.Fast.run) never \
      reaches Robust.Context.poll/Chaos.point \xe2\x80\x94 un-cancellable\n\
      lib/sos/fast.ml:4 A2 rec loop in Sos.Fast.walk (reachable from Sos.Fast.run) never \
      reaches Robust.Context.poll/Chaos.point \xe2\x80\x94 un-cancellable\n"
    ^ summary_line ~files:1 ~functions:3 ~edges:2 ~violations:2 ~suppressed:0 ~sites:0)
    out;
  Alcotest.(check int) "violating exit" 1 code

(* --------------------------------------------------- cross-cutting *)

(* Two runs agree byte for byte: the listing on a fixture, and the JSON
   report on the repo scan (the two reports CI diffs). *)
let test_deterministic_output () =
  let fixture_args = Printf.sprintf "--root %s/a1_bad lib bin bench" fixtures in
  let code1, out1 = run_lint fixture_args in
  let code2, out2 = run_lint fixture_args in
  Alcotest.(check string) "fixture bytes identical" out1 out2;
  Alcotest.(check int) "fixture exits agree" code1 code2;
  let report () = json_of (fun extra -> run_lint (extra ^ " " ^ repo_args)) in
  Alcotest.(check string) "repo report bytes identical" (report ()) (report ())

let test_json_report () =
  let json = json_of (fun extra -> graph_root ~extra "a4_bad") in
  List.iter
    (fun needle -> Alcotest.(check bool) ("contains " ^ needle) true (json_contains json needle))
    [
      "\"files_checked\": 2";
      "\"functions\": 2";
      "\"edges\": 1";
      "\"violations\": 1";
      "\"suppressed\": 0";
      "\"allow_sites\": 0";
      "{\"id\": \"A1\", \"name\": \"determinism-taint\", \"violations\": 0, \"suppressed\": 0}";
      "{\"id\": \"A4\", \"name\": \"failure-taxonomy-reachability\", \"violations\": 1, \
       \"suppressed\": 0}";
      "\"file\": \"lib/sos/packer.ml\", \"line\": 1, \"rule\": \"A4\"";
    ];
  check_json_shape json

let test_baseline_roundtrip () =
  let path = Filename.temp_file "soslint" ".baseline" in
  let code, _ = graph_root ~extra:("--write-baseline " ^ path) "a4_allow" in
  Alcotest.(check int) "write exit" 0 code;
  let rows = In_channel.with_open_bin path In_channel.input_all in
  Alcotest.(check string) "per-rule rows"
    "R1 0\nR2 0\nR3 0\nR4 0\nR5 0\nR6 0\nR7 0\nA1 0\nA2 0\nA3 0\nA4 1\n" rows;
  let code, _ = graph_root ~extra:("--baseline " ^ path) "a4_allow" in
  Alcotest.(check int) "within baseline" 0 code;
  Sys.remove path

let test_baseline_regression () =
  let path = Filename.temp_file "soslint" ".baseline" in
  Out_channel.with_open_text path (fun oc -> output_string oc "A4 0\n");
  let code, out = graph_root ~extra:("--baseline " ^ path) "a4_allow" in
  Sys.remove path;
  Alcotest.(check int) "allow-count increase fails" 1 code;
  let mentions =
    String.split_on_char '\n' out
    |> List.exists (fun l ->
           String.length l >= 3 && String.sub l 0 3 = "A4:"
           && String.length l > String.length "A4: 1 suppressed")
  in
  Alcotest.(check bool) "explains the baseline breach" true mentions

(* The repo scan builds the whole call graph, finds no A1-A4 violation,
   and keeps every pass at or under its committed baseline row (the
   listing and exit code are checked by the lint suite's repo test). *)
let test_repo_is_clean () =
  let json = json_of (fun extra -> run_lint (extra ^ " " ^ repo_args)) in
  let baseline =
    In_channel.with_open_text "../tools/lint/allow_baseline.txt" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter_map (fun l ->
           try Some (Scanf.sscanf l "%s %d" (fun id n -> (id, n))) with _ -> None)
  in
  List.iter
    (fun (id, name) ->
      let row =
        Printf.sprintf "{\"id\": \"%s\", \"name\": \"%s\", \"violations\": 0, \"suppressed\": "
          id name
      in
      Alcotest.(check bool) (id ^ " has no violations") true (json_contains json row);
      let allowed = List.assoc id baseline in
      let within =
        List.exists
          (fun n -> json_contains json (Printf.sprintf "%s%d}" row n))
          (List.init (allowed + 1) Fun.id)
      in
      Alcotest.(check bool) (Printf.sprintf "%s within its baseline of %d" id allowed) true within)
    [
      ("A1", "determinism-taint");
      ("A2", "cancellation-poll-coverage");
      ("A3", "domain-safety");
      ("A4", "failure-taxonomy-reachability");
    ];
  Alcotest.(check bool) "whole call graph" true (not (json_contains json "\"functions\": 0,"))

let suite =
  let per_pass =
    expected
    |> List.concat_map (fun (pass, listing, r_lines, (bad, clean, allow)) ->
           [
             Alcotest.test_case (pass ^ " violating fixture") `Quick
               (test_pass_violating pass listing bad);
             Alcotest.test_case (pass ^ " clean fixture") `Quick (test_pass_clean pass clean);
             Alcotest.test_case (pass ^ " suppressed fixture") `Quick
               (test_pass_allow pass r_lines allow);
           ])
  in
  ( "analysis",
    per_pass
    @ [
        Alcotest.test_case "A2 closures passed to a polling loop" `Quick test_a2_callback;
        Alcotest.test_case "output byte-identical across runs" `Quick test_deterministic_output;
        Alcotest.test_case "json report" `Quick test_json_report;
        Alcotest.test_case "baseline roundtrip" `Quick test_baseline_roundtrip;
        Alcotest.test_case "baseline regression rejected" `Quick test_baseline_regression;
        Alcotest.test_case "repo analyses clean" `Quick test_repo_is_clean;
      ] )
