(* Lintkit — the frontend and report core of soslint.

   soslint parses the scanned tree once with ppxlib and runs two kinds of
   check over it: the per-file rules R1-R7 (Rules) and the whole-program
   call-graph passes A1-A4 (Passes). Both honour one [@sos.allow
   "Xn: reason"] suppression attribute and feed one finding list, one set
   of per-rule suppression counts, and one committed baseline. This
   module holds that common ground: deterministic file discovery, the
   file sets each kind of check sees, parsing, the rule vocabulary and
   scopes, the allow-payload grammar, the finding store, and the baseline
   read/write/check cycle. Everything here is machine-independent:
   relative paths use '/' and every listing sorts identically on any
   host. *)

open Ppxlib

(* ------------------------------------------------------------- strings *)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 32 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let flatten lid =
  match Longident.flatten_exn lid with
  | "Stdlib" :: rest -> rest
  | parts -> parts

(* ------------------------------------------------------------ file sets *)

(* The engine and robust libraries pick a pool/TLS implementation per
   compiler: inside _build, pool.ml and tls.ml are verbatim copies of
   pool_multicore/pool_sequential and tls_multicore/tls_sequential. The
   copies are never scanned (their sources already are), so the scan and
   its counts do not depend on compiler version or build state. *)
let generated = [ "lib/engine/pool.ml"; "lib/robust/tls.ml" ]

(* The A passes model the multicore build: pool_multicore.ml is
   Engine.Pool and tls_multicore.ml is Robust.Tls, and the sequential
   fallbacks (R-linted like any file) are left out of the call graph. *)
let sequential_fallbacks = [ "lib/engine/pool_sequential.ml"; "lib/robust/tls_sequential.ml" ]

let module_name_of_base base =
  let base =
    if Filename.check_suffix base "_multicore" then Filename.chop_suffix base "_multicore"
    else base
  in
  String.capitalize_ascii base

(* Each file the A passes analyse lives in a namespace ("space") of
   sibling modules: one per library directory (where the dune wrapping
   module is the capitalized directory name) and one per executable
   directory. [None] for a file outside the call graph. *)
let space_of_rel rel =
  if (not (Filename.check_suffix rel ".ml")) || List.mem rel sequential_fallbacks then None
  else
    match String.split_on_char '/' rel with
    | [ "lib"; libdir; base ] ->
        Some
          ( "lib:" ^ libdir,
            [ String.capitalize_ascii libdir; module_name_of_base (Filename.chop_extension base) ]
          )
    | [ "bin"; dir; base ] ->
        Some ("bin:" ^ dir, [ module_name_of_base (Filename.chop_extension base) ])
    | [ "bench"; base ] -> Some ("bench", [ module_name_of_base (Filename.chop_extension base) ])
    | [ "test"; base ] -> Some ("test", [ module_name_of_base (Filename.chop_extension base) ])
    | _ -> None

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Every .ml/.mli under [rel], as root-relative '/'-separated paths.
   Dotfiles and _build are skipped so the walk is independent of build
   state; the caller sorts the combined list. *)
let rec walk ~root rel acc =
  let path = if rel = "" then root else Filename.concat root rel in
  if Sys.is_directory path then
    Array.fold_left
      (fun acc entry ->
        if entry = "" || entry.[0] = '.' || entry = "_build" then acc
        else walk ~root (if rel = "" then entry else rel ^ "/" ^ entry) acc)
      acc (Sys.readdir path)
  else if Filename.check_suffix rel ".ml" || Filename.check_suffix rel ".mli" then rel :: acc
  else acc

(* The scan set: [dirs] that exist under [root], minus the generated
   copies and anything under an [exclude_dirs] prefix (fixture mini-repos
   inside test/ carry intentional violations). *)
let scan_files ~root ~dirs ~exclude_dirs =
  let under_excluded rel =
    List.exists (fun d -> starts_with ~prefix:(d ^ "/") rel || rel = d) exclude_dirs
  in
  dirs
  |> List.concat_map (fun d ->
         if Sys.file_exists (Filename.concat root d) then walk ~root d [] else [])
  |> List.filter (fun rel -> not (List.mem rel generated) && not (under_excluded rel))
  |> List.sort_uniq compare

type parsed = Impl of structure | Intf of signature

(* Parse one file; [Error msg] on a syntax error (reported collectively
   with exit 2 — an unparsable tree must fail the gate, not silently
   shrink the scan). *)
let parse_file ~root rel =
  let src = read_file (Filename.concat root rel) in
  let lexbuf = Lexing.from_string src in
  Lexing.set_filename lexbuf rel;
  try
    if Filename.check_suffix rel ".mli" then Ok (Intf (Parse.interface lexbuf))
    else Ok (Impl (Parse.implementation lexbuf))
  with exn -> Error (Printf.sprintf "%s: parse error: %s" rel (Printexc.to_string exn))

(* ------------------------------------------------------------ rule set *)

let rule_ids = [ "R1"; "R2"; "R3"; "R4"; "R5"; "R6"; "R7"; "A1"; "A2"; "A3"; "A4" ]

let rule_title = function
  | "R1" -> "seeded-rng-only"
  | "R2" -> "wall-clock-chokepoint"
  | "R3" -> "atomic-not-mutex"
  | "R4" -> "stdout-purity"
  | "R5" -> "ordered-hashtbl-emission"
  | "R6" -> "failure-taxonomy"
  | "R7" -> "explicit-float-compare"
  | "A1" -> "determinism-taint"
  | "A2" -> "cancellation-poll-coverage"
  | "A3" -> "domain-safety"
  | "A4" -> "failure-taxonomy-reachability"
  | _ -> "allow-syntax"

(* R6 applies where the Robust.Failure taxonomy is the error contract:
   the engine and resilience layers in full, plus the solver run loops.
   Structure modules (State, Window, Assign, ...) keep [invalid_arg] as
   their documented API contract and are out of scope; see doc/LINT.md. *)
let r6_hot rel =
  starts_with ~prefix:"lib/engine/" rel
  || starts_with ~prefix:"lib/robust/" rel
  || List.mem rel
       [
         "lib/sos/fast.ml";
         "lib/sos/listing1.ml";
         "lib/sos/online.ml";
         "lib/sos/ablation.ml";
         "lib/sos/preemptive.ml";
       ]

(* Relative paths are relative to --root, so scoping is
   machine-independent. The A passes see the call-graph files; an A
   allow anywhere else is inert. *)
let rule_in_scope rule rel =
  match rule with
  | "R1" -> rel <> "lib/prelude/rng.ml" && rel <> "lib/prelude/rng.mli"
  | "R2" -> rel <> "lib/prelude/clock.ml" && rel <> "lib/prelude/clock.mli"
  | "R3" | "R4" -> starts_with ~prefix:"lib/" rel
  | "R6" -> r6_hot rel
  | "R7" -> starts_with ~prefix:"lib/sos/" rel || starts_with ~prefix:"lib/sas/" rel
  | "A1" | "A2" | "A3" | "A4" -> space_of_rel rel <> None
  | _ -> true

(* ------------------------------------------------------------ findings *)

type finding = { h_file : string; h_line : int; h_col : int; h_rule : string; h_msg : string }

type allow_site = {
  a_file : string;
  a_line : int;
  a_rule : string;
  a_reason : string;
  mutable a_uses : int;
}

let findings : finding list ref = ref []
let suppressed : string list ref = ref [] (* rule id of every suppressed hit *)
let allows : allow_site list ref = ref []

let report ~file ~line ?(col = 0) ~rule msg =
  findings := { h_file = file; h_line = line; h_col = col; h_rule = rule; h_msg = msg } :: !findings

let suppress a =
  a.a_uses <- a.a_uses + 1;
  suppressed := a.a_rule :: !suppressed

(* ------------------------------------------------- [@sos.allow] grammar *)

(* [@sos.allow "Xn: reason"] — exactly one rule id from R1..R7, A1..A4
   and a nonempty reason. Anything else under the sos.allow name is
   itself reported (R0) so a typo cannot silently suppress nothing. *)
let parse_allow_payload s =
  let s = String.trim s in
  match String.index_opt s ':' with
  | None -> Error "missing ':' \xe2\x80\x94 expected \"Rn: reason\""
  | Some i ->
      let id = String.trim (String.sub s 0 i) in
      let reason = String.trim (String.sub s (i + 1) (String.length s - i - 1)) in
      if not (List.mem id rule_ids) then
        Error (Printf.sprintf "unknown rule id %S \xe2\x80\x94 expected R1..R7, A1..A4" id)
      else if reason = "" then Error "empty reason"
      else Ok (id, reason)

(* Both kinds of check walk the same attributes, so each attribute is
   parsed once, keyed by its position: a malformed payload is reported
   once, and a site is registered once whichever walk meets it first. *)
let seen : (string * int, allow_site option) Hashtbl.t = Hashtbl.create 64

let allow_of_attribute ~rel (a : attribute) : allow_site option =
  let loc = a.attr_loc in
  let key = (rel, loc.loc_start.pos_cnum) in
  if a.attr_name.txt <> "sos.allow" then None
  else
    match Hashtbl.find_opt seen key with
    | Some site -> site
    | None ->
        let payload =
          match a.attr_payload with
          | PStr
              [
                {
                  pstr_desc =
                    Pstr_eval ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
                  _;
                };
              ] ->
              parse_allow_payload s
          | _ -> Error "payload must be a string literal \"Rn: reason\""
        in
        let site =
          match payload with
          | Error msg ->
              report ~file:rel ~line:loc.loc_start.pos_lnum
                ~col:(loc.loc_start.pos_cnum - loc.loc_start.pos_bol)
                ~rule:"R0"
                (Printf.sprintf "malformed [@sos.allow]: %s" msg);
              None
          | Ok (id, _) when id.[0] = 'A' && not (rule_in_scope id rel) -> None
          | Ok (id, reason) ->
              let site =
                { a_file = rel; a_line = loc.loc_start.pos_lnum; a_rule = id; a_reason = reason; a_uses = 0 }
              in
              allows := site :: !allows;
              Some site
        in
        Hashtbl.replace seen key site;
        site

(* An allow that suppresses nothing is itself a defect: it documents an
   exemption that does not exist (stale after a refactor, or a typo'd
   rule id) and would silently mask a future regression. *)
let report_unused_allows () =
  List.iter
    (fun a ->
      if a.a_uses = 0 && rule_in_scope a.a_rule a.a_file then
        report ~file:a.a_file ~line:a.a_line ~rule:"R0"
          (Printf.sprintf "unused [@sos.allow \"%s: ...\"]: it suppresses no hit" a.a_rule))
    !allows

(* ------------------------------------------------------------ baseline *)

(* The baseline file is one "<id> <count>" row per rule: the number of
   suppressed hits the repo is allowed to carry. A scan may come in
   under the baseline (suppressions were removed — ratchet down by
   regenerating) but never over it. *)

let baseline_counts () =
  List.map (fun id -> (id, List.length (List.filter (( = ) id) !suppressed))) rule_ids

let write_baseline path =
  let oc = open_out path in
  List.iter (fun (id, n) -> Printf.fprintf oc "%s %d\n" id n) (baseline_counts ());
  close_out oc

let check_baseline path =
  let ic = open_in path in
  let table = Hashtbl.create 16 in
  (try
     while true do
       let line = String.trim (input_line ic) in
       if line <> "" then Scanf.sscanf line "%s %d" (fun id n -> Hashtbl.replace table id n)
     done
   with End_of_file -> ());
  close_in ic;
  List.filter_map
    (fun (id, n) ->
      let allowed = Option.value ~default:0 (Hashtbl.find_opt table id) in
      if n > allowed then
        Some
          (Printf.sprintf
             "%s: %d suppressed hits exceed the committed baseline of %d (tools/lint: update the \
              baseline only with a reviewed reason)"
             id n allowed)
      else None)
    (baseline_counts ())
