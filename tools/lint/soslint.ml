(* soslint — repo-invariant static analysis for sharing-is-caring.

   Parses every .ml/.mli under the given directories (default lib/ bin/
   bench/) once with ppxlib — parse only, no typing, so it runs in well
   under a second and needs no build — and runs two kinds of check over
   the same trees: the per-file rules R1-R7 (Rules) on every file, and
   the whole-program call-graph passes A1-A4 (Passes) on the .ml files
   of the call-graph spaces. Both report into one sorted
   [file:line ID message] listing, one JSON report, one summary line, and
   one per-rule baseline of [@sos.allow] suppressions; see doc/LINT.md.

   Output is deterministic: byte-identical across runs and compiler
   versions (the scan reads the source tree, never _build artifacts). *)

open Lintkit

let json_report ~files ~open_hits =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{\n";
  add "  \"files_checked\": %d,\n" files;
  add "  \"functions\": %d,\n" (Passes.function_count ());
  add "  \"edges\": %d,\n" (Passes.edge_count ());
  add "  \"violations\": %d,\n" (List.length open_hits);
  add "  \"suppressed\": %d,\n" (List.length !suppressed);
  add "  \"allow_sites\": %d,\n" (List.length !allows);
  add "  \"rules\": [\n";
  let count id xs = List.length (List.filter (( = ) id) xs) in
  let rule_row id =
    Printf.sprintf
      "    {\"id\": \"%s\", \"name\": \"%s\", \"violations\": %d, \"suppressed\": %d}" id
      (rule_title id)
      (count id (List.map (fun h -> h.h_rule) open_hits))
      (count id !suppressed)
  in
  add "%s" (String.concat ",\n" (List.map rule_row rule_ids));
  add "\n  ],\n  \"violations_list\": [\n";
  let hit_row h =
    Printf.sprintf "    {\"file\": \"%s\", \"line\": %d, \"rule\": \"%s\", \"message\": \"%s\"}"
      (json_escape h.h_file) h.h_line h.h_rule (json_escape h.h_msg)
  in
  add "%s" (String.concat ",\n" (List.map hit_row open_hits));
  add "\n  ],\n  \"allows\": [\n";
  let allow_row a =
    Printf.sprintf
      "    {\"file\": \"%s\", \"line\": %d, \"rule\": \"%s\", \"reason\": \"%s\", \"uses\": %d}"
      (json_escape a.a_file) a.a_line a.a_rule (json_escape a.a_reason) a.a_uses
  in
  let sorted_allows =
    List.sort (fun a b -> compare (a.a_file, a.a_line) (b.a_file, b.a_line)) !allows
  in
  add "%s" (String.concat ",\n" (List.map allow_row sorted_allows));
  add "\n  ]\n}\n";
  Buffer.contents buf

let usage =
  "soslint [--root DIR] [--json PATH] [--baseline PATH] [--write-baseline PATH] [--exclude-dir \
   REL]... [DIR]..."

let () =
  let root = ref "." in
  let json_out = ref None in
  let baseline = ref None in
  let write_base = ref None in
  let exclude_dirs = ref [] in
  let dirs = ref [] in
  let rec parse_args = function
    | [] -> ()
    | "--root" :: v :: rest ->
        root := v;
        parse_args rest
    | "--json" :: v :: rest ->
        json_out := Some v;
        parse_args rest
    | "--baseline" :: v :: rest ->
        baseline := Some v;
        parse_args rest
    | "--write-baseline" :: v :: rest ->
        write_base := Some v;
        parse_args rest
    | "--exclude-dir" :: v :: rest ->
        exclude_dirs := v :: !exclude_dirs;
        parse_args rest
    | ("--help" | "-h") :: _ ->
        print_endline usage;
        exit 0
    | flag :: _ when String.length flag > 2 && starts_with ~prefix:"--" flag ->
        prerr_endline ("soslint: unknown flag " ^ flag);
        prerr_endline usage;
        exit 2
    | d :: rest ->
        dirs := d :: !dirs;
        parse_args rest
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let dirs = if !dirs = [] then [ "lib"; "bin"; "bench" ] else List.rev !dirs in
  let files = scan_files ~root:!root ~dirs ~exclude_dirs:!exclude_dirs in
  let parsed = List.map (fun rel -> (rel, parse_file ~root:!root rel)) files in
  (match List.filter_map (function _, Error msg -> Some msg | _ -> None) parsed with
  | [] -> ()
  | errs ->
      List.iter prerr_endline (List.sort compare errs);
      exit 2);
  let parsed = List.filter_map (function rel, Ok ast -> Some (rel, ast) | _ -> None) parsed in
  List.iter (fun (rel, ast) -> Rules.lint_file ~rel ast) parsed;
  Passes.run parsed;
  report_unused_allows ();
  let open_hits =
    List.sort_uniq
      (fun a b ->
        compare
          (a.h_file, a.h_line, a.h_col, a.h_rule, a.h_msg)
          (b.h_file, b.h_line, b.h_col, b.h_rule, b.h_msg))
      !findings
  in
  List.iter (fun h -> Printf.printf "%s:%d %s %s\n" h.h_file h.h_line h.h_rule h.h_msg) open_hits;
  let baseline_failures = match !baseline with Some p -> check_baseline p | None -> [] in
  List.iter print_endline baseline_failures;
  Option.iter write_baseline !write_base;
  Option.iter
    (fun p ->
      let oc = open_out p in
      output_string oc (json_report ~files:(List.length files) ~open_hits);
      close_out oc)
    !json_out;
  Printf.printf
    "soslint: %d files, %d functions, %d edges, %d violations, %d suppressed hits via %d \
     [@sos.allow] sites\n"
    (List.length files) (Passes.function_count ()) (Passes.edge_count ()) (List.length open_hits)
    (List.length !suppressed) (List.length !allows);
  if open_hits <> [] || baseline_failures <> [] then exit 1
