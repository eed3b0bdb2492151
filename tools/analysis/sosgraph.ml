(* sosgraph — whole-program static analysis for sharing-is-caring.

   soslint (tools/lint) checks each file in isolation; the invariants it
   cannot see are the interprocedural ones: a helper three calls deep
   reads the wall clock and the value flows into a deterministic solver,
   a hot loop is cancellable only because a callee polls, a module-level
   Hashtbl is touched from a pool worker, an exception escapes a sosctl
   subcommand without a Robust.Failure class. sosgraph parses every .ml
   under lib/ bin/ bench/ (and test/ when asked) with ppxlib — parse
   only, no typing — builds a whole-repo call graph with conservative
   per-module open/alias resolution (a call into a repo module whose
   definition cannot be found is treated as tainted), and runs four
   passes over it:

   - A1 determinism-taint: wall-clock, unseeded RNG, Domain.DLS, and
     environment reads must not flow into det-class Obs registration
     sites or into Sos.*/Sas.* solver entry points.
   - A2 cancellation-poll-coverage: every while/rec loop reachable from
     the solver entries, the pool workers, and the serve request loop
     must reach a Robust.Context.poll / Robust.Chaos.point /
     Robust.Cancel.check site in its body, directly or via callees.
   - A3 domain-safety: module-toplevel mutable state reachable from
     pool worker code must be Atomic, Tls/DLS, or explicitly allowed.
   - A4 failure-taxonomy-reachability: every raise/failwith reachable
     from a sosctl subcommand must map to a Robust.Failure class (or be
     an in-file-handled control-flow exception).

   Suppression uses the same [@sos.allow "An: reason"] attribute (and
   the same committed-baseline ratchet) as soslint; see doc/LINT.md.
   Output is deterministic: sorted file:line listings, byte-identical
   across runs and compiler versions (the scan reads the source tree,
   never _build, and always analyses the multicore pool/tls variants). *)

open Ppxlib

let starts_with = Lintkit.starts_with
let json_escape = Lintkit.json_escape
let flatten = Lintkit.flatten

(* ------------------------------------------------------------ pass set *)

let pass_ids = [ "A1"; "A2"; "A3"; "A4" ]

let pass_title = function
  | "A1" -> "determinism-taint"
  | "A2" -> "cancellation-poll-coverage"
  | "A3" -> "domain-safety"
  | "A4" -> "failure-taxonomy-reachability"
  | _ -> "allow-syntax"

(* ------------------------------------------------------- configuration *)

(* Det-class Obs registration entry points: a module-toplevel binding
   whose body calls one of these is a det-class registration site, and a
   tainted function updating such a binding is an A1 violation. *)
let det_reg_fns = [ "Obs.Metrics.counter"; "Obs.Metrics.hist"; "Obs.Hist.create" ]

(* Cooperative-cancellation sites credited by A2. *)
let poll_fns = [ "Robust.Context.poll"; "Robust.Chaos.point"; "Robust.Cancel.check" ]

(* A1 sinks: deterministic solver entry points. *)
let solver_entry id =
  match String.split_on_char '.' id with
  | [ ("Sos" | "Sas"); _; "run" ] -> true
  | _ -> false

(* Every solver sosctl can run is an entry of the Baselines.Solver table,
   whose bindings reference each solver's run function: rooting at the
   module covers the whole table. Sas.Combined.run is the one solver
   outside it (the SAS problem of Section 4). *)
let solver_root id = starts_with ~prefix:"Baselines.Solver." id || id = "Sas.Combined.run"

(* A2 roots: the run loops whose cancellability the service story needs. *)
let a2_root id =
  solver_root id
  || id = "Sos.Fast.run"
  || starts_with ~prefix:"Engine.Pool." id
  || starts_with ~prefix:"Engine.Batch." id
  || starts_with ~prefix:"Serve.Server." id

(* A3 roots: code that executes on pool worker domains — the pool/batch
   machinery itself plus everything a batch task closure calls (solver
   entries and the incremental session layer). *)
let a3_root id =
  solver_root id
  || starts_with ~prefix:"Engine.Pool." id
  || starts_with ~prefix:"Engine.Batch." id
  || starts_with ~prefix:"Sos.Online." id

(* A4: the Robust.Failure taxonomy carriers (plus the chaos injector),
   matched on the last constructor component so [open Robust.Failure] /
   [module F = Robust.Failure] raises are recognised too. *)
let taxonomy_ctor name =
  List.mem name
    [ "Invalid"; "Deadline"; "Cancel_requested"; "Pool_down"; "Internal"; "Injected" ]

(* Mutable-state constructors recognised by A3 at module toplevel.
   [Atomic.make] and [Tls.new_key] are the sanctioned forms and are not
   listed. Plain arrays are left out: toplevel arrays in this repo are
   precomputed constant tables. *)
let mutable_ctor parts =
  match parts with
  | [ "ref" ] -> Some "ref"
  | [ "Hashtbl"; "create" ] -> Some "Hashtbl.t"
  | [ "Buffer"; "create" ] -> Some "Buffer.t"
  | [ "Queue"; "create" ] -> Some "Queue.t"
  | [ "Stack"; "create" ] -> Some "Stack.t"
  | [ "Bytes"; ("create" | "make") ] -> Some "Bytes.t"
  | _ -> None

(* A1 taint seeds among unresolvable (external) paths. [rel] scopes the
   chokepoints: Prelude.Rng may use stdlib Random internals (it is the
   seeded wrapper), but Prelude.Clock does NOT get a pass — Clock.now is
   wall-clock by definition, so callers on deterministic paths must
   carry an explicit allow at the call site. *)
let seed_of_external ~rel parts =
  match parts with
  | [ "Unix"; ("gettimeofday" | "time") ] | [ "Sys"; "time" ] ->
      Some ("wall-clock " ^ String.concat "." parts)
  | "Random" :: _ when rel <> "lib/prelude/rng.ml" ->
      Some ("unseeded RNG " ^ String.concat "." parts)
  | [ "Sys"; ("getenv" | "getenv_opt" | "unsafe_getenv") ]
  | [ "Unix"; ("getenv" | "getenv_opt" | "environment") ] ->
      Some ("environment read " ^ String.concat "." parts)
  | "Domain" :: "DLS" :: _ -> Some ("domain-local state " ^ String.concat "." parts)
  | [ "Domain"; "self" ] -> Some "domain identity Domain.self"
  | _ -> None

(* --------------------------------------------------------- module space *)

(* Each scanned file lives in a namespace ("space") of sibling modules:
   one per library directory (where the dune wrapping module is the
   capitalized directory name) and one per executable directory. The
   engine/robust compile-time variant copies map to their wrapped names:
   pool_multicore.ml is Engine.Pool and tls_multicore.ml is Robust.Tls
   (the *_sequential fallbacks and the pool.ml/tls.ml build copies are
   excluded — the analysis models the multicore build, and the scan must
   not depend on compiler version or build state). *)

let module_name_of_base base =
  let base =
    if Filename.check_suffix base "_multicore" then
      Filename.chop_suffix base "_multicore"
    else base
  in
  String.capitalize_ascii base

let space_of_rel rel =
  match String.split_on_char '/' rel with
  | [ "lib"; libdir; base ] ->
      Some
        ( "lib:" ^ libdir,
          [
            String.capitalize_ascii libdir;
            module_name_of_base (Filename.chop_extension base);
          ] )
  | [ "bin"; dir; base ] ->
      Some ("bin:" ^ dir, [ module_name_of_base (Filename.chop_extension base) ])
  | [ "bench"; base ] ->
      Some ("bench", [ module_name_of_base (Filename.chop_extension base) ])
  | [ "test"; base ] ->
      Some ("test", [ module_name_of_base (Filename.chop_extension base) ])
  | _ -> None

(* ------------------------------------------------------- found objects *)

type allow_site = {
  a_file : string;
  a_line : int;
  a_rule : string;
  a_reason : string;
  mutable a_uses : int;
}

type seed = { s_line : int; s_desc : string; s_allow : allow_site option }
type redge = { r_target : string; r_allow : allow_site option }
type unres = { u_path : string; u_allow : allow_site option }

type loop_info = {
  l_line : int;
  l_kind : string; (* "while" | "rec" *)
  mutable l_refs : string list;
  l_allow : allow_site option;
  l_parents : loop_info list; (* enclosing loops, innermost first *)
}

type raise_info = {
  x_line : int;
  x_desc : string;
  x_ctor : string option; (* last ctor component; None for failwith *)
  x_allow : allow_site option;
}

type dinfo = {
  d_id : string;
  d_file : string;
  d_line : int;
  mutable d_refs : redge list;
  mutable d_unres : unres list;
  mutable d_seeds : seed list;
  mutable d_loops : loop_info list;
  mutable d_raises : raise_info list;
  mutable d_mutable : (string * allow_site option) option;
  mutable d_rec_group : string list; (* ids of the let-rec group, [] if none *)
  mutable d_a2_allow : allow_site option; (* binding-level allow for rec defs *)
  mutable d_callbacks : (string * string list) list;
      (* (callee, refs made inside an inline closure argument of a call to it) *)
}

type violation = { v_file : string; v_line : int; v_pass : string; v_msg : string }

let defs : (string, dinfo) Hashtbl.t = Hashtbl.create 512
let modset : (string, unit) Hashtbl.t = Hashtbl.create 64

(* (space, Mod) -> fully qualified top module id *)
let siblings : (string * string, string) Hashtbl.t = Hashtbl.create 64
let wraps : (string, unit) Hashtbl.t = Hashtbl.create 16 (* "Sos", "Prelude", ... *)
let allows : allow_site list ref = ref []
let parse_errors : string list ref = ref []
let violations : violation list ref = ref []
let suppressed : (string * string * int) list ref = ref [] (* pass, file, line *)

let add_violation ~file ~line ~pass ~msg =
  violations := { v_file = file; v_line = line; v_pass = pass; v_msg = msg } :: !violations

let suppress ~pass ~(a : allow_site) ~file ~line =
  a.a_uses <- a.a_uses + 1;
  suppressed := (pass, file, line) :: !suppressed

let find_def id = Hashtbl.find_opt defs id

let new_def ~file ~line id =
  match Hashtbl.find_opt defs id with
  | Some d -> d
  | None ->
      let d =
        {
          d_id = id;
          d_file = file;
          d_line = line;
          d_refs = [];
          d_unres = [];
          d_seeds = [];
          d_loops = [];
          d_raises = [];
          d_mutable = None;
          d_rec_group = [];
          d_a2_allow = None;
          d_callbacks = [];
        }
      in
      Hashtbl.replace defs id d;
      d

(* ------------------------------------------------- per-file front info *)

type finfo = {
  f_rel : string;
  f_space : string;
  f_top : string list;
  f_ast : structure;
  mutable f_aliases : (string * string list) list;
  mutable f_handled : string list; (* exception ctors appearing in handlers *)
}

let files : finfo list ref = ref []

(* -------------------------------------------------- [@sos.allow] sites *)

let allow_of_attribute ~rel (a : attribute) : allow_site option =
  let loc = a.attr_loc in
  let bad msg =
    add_violation ~file:rel ~line:loc.loc_start.pos_lnum ~pass:"A0"
      ~msg:(Printf.sprintf "malformed [@sos.allow]: %s" msg)
  in
  match Lintkit.allow_attr_payload a with
  | None -> None
  | Some (Error msg) ->
      bad msg;
      None
  | Some (Ok s) -> (
      match Lintkit.parse_allow_payload ~valid_ids:pass_ids ~expected:"A1..A4" s with
      | Ok (id, reason) ->
          let site =
            {
              a_file = rel;
              a_line = loc.loc_start.pos_lnum;
              a_rule = id;
              a_reason = reason;
              a_uses = 0;
            }
          in
          allows := site :: !allows;
          Some site
      | Error msg ->
          (* An R-rule payload belongs to soslint and is not ours to
             police; only a payload neither tool recognises is malformed
             from sosgraph's side. *)
          (match
             Lintkit.parse_allow_payload
               ~valid_ids:[ "R1"; "R2"; "R3"; "R4"; "R5"; "R6"; "R7" ]
               ~expected:"R1..R7" s
           with
          | Ok _ -> ()
          | Error _ -> bad msg);
          None)

(* ---------------------------------------------------- phase 1: collect *)

let pat_vars p =
  let acc = ref [] in
  let rec go p =
    match p.ppat_desc with
    | Ppat_var { txt; _ } -> acc := txt :: !acc
    | Ppat_alias (p, { txt; _ }) ->
        acc := txt :: !acc;
        go p
    | Ppat_tuple ps | Ppat_array ps -> List.iter go ps
    | Ppat_construct (_, Some (_, p)) -> go p
    | Ppat_variant (_, Some p) -> go p
    | Ppat_record (fs, _) -> List.iter (fun (_, p) -> go p) fs
    | Ppat_or (a, b) ->
        go a;
        go b
    | Ppat_constraint (p, _) | Ppat_lazy p | Ppat_open (_, p) | Ppat_exception p -> go p
    | _ -> ()
  in
  go p;
  !acc

let def_names_of_vb vb =
  match pat_vars vb.pvb_pat with
  | [] -> [ Printf.sprintf "(entry:%d)" vb.pvb_loc.loc_start.pos_lnum ]
  | names -> List.rev names

let register_modpath path = Hashtbl.replace modset (String.concat "." path) ()

let rec module_structure me =
  match me.pmod_desc with
  | Pmod_structure st -> Some st
  | Pmod_constraint (me, _) | Pmod_functor (_, me) -> module_structure me
  | _ -> None

let rec collect_structure (f : finfo) path st =
  register_modpath path;
  List.iter
    (fun item ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              let line = vb.pvb_loc.loc_start.pos_lnum in
              List.iter
                (fun name ->
                  ignore (new_def ~file:f.f_rel ~line (String.concat "." (path @ [ name ]))))
                (def_names_of_vb vb))
            vbs
      | Pstr_primitive vd ->
          ignore
            (new_def ~file:f.f_rel ~line:vd.pval_loc.loc_start.pos_lnum
               (String.concat "." (path @ [ vd.pval_name.txt ])))
      | Pstr_module mb -> collect_module f path mb
      | Pstr_recmodule mbs -> List.iter (collect_module f path) mbs
      | _ -> ())
    st

and collect_module f path mb =
  match mb.pmb_name.txt with
  | None -> ()
  | Some name -> (
      match mb.pmb_expr.pmod_desc with
      | Pmod_ident { txt; _ } -> f.f_aliases <- (name, flatten txt) :: f.f_aliases
      | _ -> (
          match module_structure mb.pmb_expr with
          | Some st -> collect_structure f (path @ [ name ]) st
          | None -> ()))

(* --------------------------------------------------------- resolution *)

let expand_aliases (f : finfo) parts =
  let rec go fuel parts =
    match parts with
    | head :: rest when fuel > 0 -> (
        match List.assoc_opt head f.f_aliases with
        | Some target when target <> parts -> go (fuel - 1) (target @ rest)
        | _ -> parts)
    | _ -> parts
  in
  go 8 parts

type target =
  | Internal of string
  | Unresolved of string (* inside the repo, but no such definition *)
  | External of string list

(* Candidate qualified ids for [parts] written inside module context
   [ctx] with [opens] active. First candidate naming a known def wins;
   otherwise the first whose module prefix is a known repo module is an
   unresolved-internal call (conservatively tainted); otherwise the path
   is external (stdlib or similar). *)
let resolve (f : finfo) ~ctx ~opens parts =
  let parts = expand_aliases f parts in
  let ctx_candidates =
    (* innermost module first: ctx [Sos; Online] yields Sos.Online.x
       then Sos.x *)
    let rec prefixes acc = function
      | [] -> acc
      | path ->
          prefixes (path :: acc) (List.filteri (fun i _ -> i < List.length path - 1) path)
    in
    prefixes [] ctx |> List.rev
    |> List.map (fun base -> String.concat "." (base @ parts))
  in
  let sibling =
    match parts with
    | head :: rest when rest <> [] -> (
        match Hashtbl.find_opt siblings (f.f_space, head) with
        | Some top -> [ String.concat "." (String.split_on_char '.' top @ rest) ]
        | None -> [])
    | _ -> []
  in
  let direct =
    match parts with
    | head :: _ :: _ when Hashtbl.mem wraps head -> [ String.concat "." parts ]
    | _ -> []
  in
  let open_candidates =
    List.concat_map
      (fun o ->
        let o = expand_aliases f o in
        match o with
        | [ head ] when not (Hashtbl.mem wraps head) -> (
            match Hashtbl.find_opt siblings (f.f_space, head) with
            | Some top -> [ String.concat "." (String.split_on_char '.' top @ parts) ]
            | None -> [ String.concat "." (o @ parts) ])
        | _ -> [ String.concat "." (o @ parts) ])
      opens
  in
  let candidates = ctx_candidates @ sibling @ direct @ open_candidates in
  match List.find_opt (fun id -> Hashtbl.mem defs id) candidates with
  | Some id -> Internal id
  | None -> (
      (* Unqualified names that are neither local nor defs are stdlib
         (max, incr, ...) — external, never unresolved-internal. *)
      match parts with
      | [ _ ] -> External parts
      | _ -> (
          let module_prefix id =
            match String.rindex_opt id '.' with
            | None -> ""
            | Some i -> String.sub id 0 i
          in
          match
            List.find_opt
              (fun id -> module_prefix id <> "" && Hashtbl.mem modset (module_prefix id))
              (sibling @ direct @ open_candidates)
          with
          | Some id -> Unresolved id
          | None -> External parts))

(* --------------------------------------------------- phase 2: traverse *)

module SSet = Set.Make (String)

type wstate = {
  w_f : finfo;
  mutable w_active : allow_site list; (* allow stack, innermost first *)
  mutable w_opens : string list list;
  mutable w_loops : loop_info list; (* enclosing loop stack *)
}

let active_allow w pass = List.find_opt (fun a -> a.a_rule = pass) w.w_active

let current_ctx (d : dinfo) =
  match String.rindex_opt d.d_id '.' with
  | None -> []
  | Some i -> String.split_on_char '.' (String.sub d.d_id 0 i)

let record_ref w (d : dinfo) target =
  match target with
  | Internal id ->
      d.d_refs <- { r_target = id; r_allow = active_allow w "A1" } :: d.d_refs;
      List.iter (fun l -> l.l_refs <- id :: l.l_refs) w.w_loops
  | Unresolved path -> d.d_unres <- { u_path = path; u_allow = active_allow w "A1" } :: d.d_unres
  | External parts ->
      (* Poll fns live in Robust, which is internal to this repo — but a
         fixture mini-repo without a lib/robust resolves them as external.
         Record them under their canonical name so the A2 closure sees the
         edge either way. *)
      let path = String.concat "." parts in
      if List.mem path [ "Robust.Context.poll"; "Robust.Chaos.point"; "Robust.Cancel.check" ]
      then begin
        d.d_refs <- { r_target = path; r_allow = active_allow w "A1" } :: d.d_refs;
        List.iter (fun l -> l.l_refs <- path :: l.l_refs) w.w_loops
      end

(* Exception constructors a case list handles. With [~exn_only], only
   [exception P] sub-patterns count (match cases); a try handler counts
   all its constructor heads. *)
let handler_ctors ~exn_only cases =
  let out = ref [] in
  let rec heads ~in_exn p =
    match p.ppat_desc with
    | Ppat_construct ({ txt; _ }, _) when in_exn || not exn_only -> (
        match List.rev (flatten txt) with name :: _ -> out := name :: !out | [] -> ())
    | Ppat_exception p -> heads ~in_exn:true p
    | Ppat_alias (p, _) | Ppat_constraint (p, _) -> heads ~in_exn p
    | Ppat_or (a, b) ->
        heads ~in_exn a;
        heads ~in_exn b
    | _ -> ()
  in
  List.iter (fun c -> heads ~in_exn:false c.pc_lhs) cases;
  !out

let rec strip_construct e =
  match e.pexp_desc with
  | Pexp_construct ({ txt; _ }, payload) -> Some (flatten txt, payload)
  | Pexp_constraint (e, _) -> strip_construct e
  | _ -> None

let add_pat_vars locals pat =
  List.fold_left (fun acc v -> SSet.add v acc) locals (pat_vars pat)

(* detect an unqualified reference to any of [names] (recursion check
   for let-rec groups). *)
let refs_any_of e names =
  let flag = ref false in
  let iter =
    object
      inherit Ast_traverse.iter as super

      method! expression e =
        (match e.pexp_desc with
        | Pexp_ident { txt = Lident n; _ } when List.mem n names -> flag := true
        | _ -> ());
        super#expression e
    end
  in
  iter#expression e;
  !flag

let rec walk_expr w (d : dinfo) locals e =
  let added = List.filter_map (allow_of_attribute ~rel:w.w_f.f_rel) e.pexp_attributes in
  let saved_active = w.w_active in
  w.w_active <- added @ w.w_active;
  let line = e.pexp_loc.loc_start.pos_lnum in
  (match e.pexp_desc with
  | Pexp_ident { txt; _ } -> (
      let parts = flatten txt in
      match parts with
      | [ name ] when SSet.mem name locals -> ()
      | _ -> (
          match resolve w.w_f ~ctx:(current_ctx d) ~opens:w.w_opens parts with
          | External ext -> (
              match seed_of_external ~rel:w.w_f.f_rel ext with
              | Some desc ->
                  d.d_seeds <-
                    { s_line = line; s_desc = desc; s_allow = active_allow w "A1" }
                    :: d.d_seeds
              | None -> record_ref w d (External ext))
          | t -> record_ref w d t))
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt = Lident "failwith"; _ }; _ }, args)
    when not (SSet.mem "failwith" locals) ->
      d.d_raises <-
        { x_line = line; x_desc = "failwith"; x_ctor = None; x_allow = active_allow w "A4" }
        :: d.d_raises;
      List.iter (fun (_, a) -> walk_expr w d locals a) args
  | Pexp_apply
      ( { pexp_desc = Pexp_ident { txt = Lident ("raise" | "raise_notrace"); _ }; _ },
        [ (_, arg) ] ) -> (
      match strip_construct arg with
      | Some (ctor_parts, payload) ->
          let name = List.nth ctor_parts (List.length ctor_parts - 1) in
          d.d_raises <-
            {
              x_line = line;
              x_desc = "raise " ^ String.concat "." ctor_parts;
              x_ctor = Some name;
              x_allow = active_allow w "A4";
            }
            :: d.d_raises;
          Option.iter (walk_expr w d locals) payload
      | None ->
          (* re-raise of a caught exception value: class-preserving *)
          walk_expr w d locals arg)
  | Pexp_while (cond, body) ->
      let loop =
        {
          l_line = line;
          l_kind = "while";
          l_refs = [];
          l_allow = active_allow w "A2";
          l_parents = w.w_loops;
        }
      in
      d.d_loops <- loop :: d.d_loops;
      w.w_loops <- loop :: w.w_loops;
      walk_expr w d locals cond;
      walk_expr w d locals body;
      w.w_loops <- List.tl w.w_loops
  | Pexp_let (rf, vbs, body) ->
      let bound =
        List.fold_left (fun acc vb -> add_pat_vars acc vb.pvb_pat) locals vbs
      in
      let inner = if rf = Recursive then bound else locals in
      let names = List.concat_map (fun vb -> pat_vars vb.pvb_pat) vbs in
      let loop =
        if rf = Recursive then
          Some
            {
              l_line = line;
              l_kind = "rec";
              l_refs = [];
              l_allow = active_allow w "A2";
              l_parents = w.w_loops;
            }
        else None
      in
      (match loop with Some l -> w.w_loops <- l :: w.w_loops | None -> ());
      let saw_self = ref false in
      List.iter
        (fun vb ->
          let vadd = List.filter_map (allow_of_attribute ~rel:w.w_f.f_rel) vb.pvb_attributes in
          let saved = w.w_active in
          w.w_active <- vadd @ w.w_active;
          if rf = Recursive && refs_any_of vb.pvb_expr names then saw_self := true;
          walk_expr w d inner vb.pvb_expr;
          w.w_active <- saved)
        vbs;
      (match loop with
      | Some l ->
          w.w_loops <- List.tl w.w_loops;
          if !saw_self then d.d_loops <- l :: d.d_loops
      | None -> ());
      walk_expr w d bound body
  | Pexp_function (params, _, body) ->
      let bound =
        List.fold_left
          (fun acc p ->
            match p.pparam_desc with
            | Pparam_val (_, default, pat) ->
                Option.iter (walk_expr w d acc) default;
                add_pat_vars acc pat
            | Pparam_newtype _ -> acc)
          locals params
      in
      (match body with
      | Pfunction_body e -> walk_expr w d bound e
      | Pfunction_cases (cases, _, _) -> walk_cases w d bound cases)
  | Pexp_match (scrut, cases) ->
      w.w_f.f_handled <- handler_ctors ~exn_only:true cases @ w.w_f.f_handled;
      walk_expr w d locals scrut;
      walk_cases w d locals cases
  | Pexp_try (scrut, cases) ->
      w.w_f.f_handled <- handler_ctors ~exn_only:false cases @ w.w_f.f_handled;
      walk_expr w d locals scrut;
      walk_cases w d locals cases
  | Pexp_apply (fn, args) ->
      walk_expr w d locals fn;
      let callee =
        match fn.pexp_desc with
        | Pexp_ident { txt = Lident name; _ } when SSet.mem name locals -> None
        | Pexp_ident { txt; _ } -> (
            match resolve w.w_f ~ctx:(current_ctx d) ~opens:w.w_opens (flatten txt) with
            | Internal id -> Some id
            | _ -> None)
        | _ -> None
      in
      List.iter
        (fun (_, a) ->
          match (callee, a.pexp_desc) with
          | Some callee, Pexp_function _ ->
              (* an inline closure runs where the callee calls it: note its
                 refs apart too, so A2 can credit them to a polling callee *)
              let outer = d.d_refs in
              d.d_refs <- [];
              walk_expr w d locals a;
              d.d_callbacks <- (callee, List.map (fun r -> r.r_target) d.d_refs) :: d.d_callbacks;
              d.d_refs <- d.d_refs @ outer
          | _ -> walk_expr w d locals a)
        args
  | Pexp_tuple es | Pexp_array es -> List.iter (walk_expr w d locals) es
  | Pexp_construct (_, eo) | Pexp_variant (_, eo) -> Option.iter (walk_expr w d locals) eo
  | Pexp_record (fs, base) ->
      Option.iter (walk_expr w d locals) base;
      List.iter (fun (_, e) -> walk_expr w d locals e) fs
  | Pexp_field (e, _) -> walk_expr w d locals e
  | Pexp_setfield (a, _, b) | Pexp_sequence (a, b) ->
      walk_expr w d locals a;
      walk_expr w d locals b
  | Pexp_ifthenelse (c, t, eo) ->
      walk_expr w d locals c;
      walk_expr w d locals t;
      Option.iter (walk_expr w d locals) eo
  | Pexp_for (pat, lo, hi, _, body) ->
      walk_expr w d locals lo;
      walk_expr w d locals hi;
      walk_expr w d (add_pat_vars locals pat) body
  | Pexp_constraint (e, _)
  | Pexp_coerce (e, _, _)
  | Pexp_lazy e
  | Pexp_assert e
  | Pexp_newtype (_, e)
  | Pexp_poly (e, _) ->
      walk_expr w d locals e
  | Pexp_open (od, body) ->
      let saved = w.w_opens in
      (match od.popen_expr.pmod_desc with
      | Pmod_ident { txt; _ } -> w.w_opens <- flatten txt :: w.w_opens
      | _ -> ());
      walk_expr w d locals body;
      w.w_opens <- saved
  | Pexp_letmodule (name, me, body) ->
      (match (name.txt, me.pmod_desc) with
      | Some n, Pmod_ident { txt; _ } -> w.w_f.f_aliases <- (n, flatten txt) :: w.w_f.f_aliases
      | _ -> ());
      walk_expr w d locals body
  | Pexp_letexception (_, body) -> walk_expr w d locals body
  | Pexp_letop { let_; ands; body } ->
      walk_expr w d locals let_.pbop_exp;
      List.iter (fun b -> walk_expr w d locals b.pbop_exp) ands;
      let bound =
        List.fold_left
          (fun acc b -> add_pat_vars acc b.pbop_pat)
          (add_pat_vars locals let_.pbop_pat)
          ands
      in
      walk_expr w d bound body
  | _ -> ());
  w.w_active <- saved_active

and walk_cases w d locals cases =
  List.iter
    (fun c ->
      let bound = add_pat_vars locals c.pc_lhs in
      Option.iter (walk_expr w d bound) c.pc_guard;
      walk_expr w d bound c.pc_rhs)
    cases

let rec mutable_root e =
  match e.pexp_desc with
  | Pexp_constraint (e, _) -> mutable_root e
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> mutable_ctor (flatten txt)
  | _ -> None

(* Structure walk with floor allows, module nesting, and opens. *)
let rec analyze_structure (f : finfo) w path st =
  let floor =
    List.filter_map
      (function
        | { pstr_desc = Pstr_attribute a; _ } -> allow_of_attribute ~rel:f.f_rel a
        | _ -> None)
      st
  in
  let saved_active = w.w_active and saved_opens = w.w_opens in
  w.w_active <- floor @ w.w_active;
  List.iter
    (fun item ->
      match item.pstr_desc with
      | Pstr_open od -> (
          match od.popen_expr.pmod_desc with
          | Pmod_ident { txt; _ } -> w.w_opens <- flatten txt :: w.w_opens
          | _ -> ())
      | Pstr_value (rf, vbs) ->
          let group_ids =
            List.concat_map def_names_of_vb vbs
            |> List.map (fun n -> String.concat "." (path @ [ n ]))
          in
          List.iter
            (fun vb ->
              let primary = List.hd (def_names_of_vb vb) in
              let id = String.concat "." (path @ [ primary ]) in
              let d =
                match find_def id with
                | Some d -> d
                | None -> new_def ~file:f.f_rel ~line:vb.pvb_loc.loc_start.pos_lnum id
              in
              let added =
                List.filter_map (allow_of_attribute ~rel:f.f_rel) vb.pvb_attributes
              in
              let saved = w.w_active in
              w.w_active <- added @ w.w_active;
              if rf = Recursive then begin
                d.d_rec_group <- group_ids;
                d.d_a2_allow <- active_allow w "A2"
              end;
              (if starts_with ~prefix:"lib/" f.f_rel then
                 match mutable_root vb.pvb_expr with
                 | Some ctor -> d.d_mutable <- Some (ctor, active_allow w "A3")
                 | None -> ());
              walk_expr w d SSet.empty vb.pvb_expr;
              w.w_active <- saved)
            vbs
      | Pstr_module mb -> analyze_module f w path mb
      | Pstr_recmodule mbs -> List.iter (analyze_module f w path) mbs
      | Pstr_eval (e, attrs) ->
          let id =
            String.concat "."
              (path @ [ Printf.sprintf "(entry:%d)" item.pstr_loc.loc_start.pos_lnum ])
          in
          let d = new_def ~file:f.f_rel ~line:item.pstr_loc.loc_start.pos_lnum id in
          let added = List.filter_map (allow_of_attribute ~rel:f.f_rel) attrs in
          let saved = w.w_active in
          w.w_active <- added @ w.w_active;
          walk_expr w d SSet.empty e;
          w.w_active <- saved
      | _ -> ())
    st;
  w.w_active <- saved_active;
  w.w_opens <- saved_opens

and analyze_module f w path mb =
  match mb.pmb_name.txt with
  | None -> ()
  | Some name -> (
      match mb.pmb_expr.pmod_desc with
      | Pmod_ident _ -> ()
      | _ -> (
          match module_structure mb.pmb_expr with
          | Some st ->
              let added = List.filter_map (allow_of_attribute ~rel:f.f_rel) mb.pmb_attributes in
              let saved = w.w_active in
              w.w_active <- added @ w.w_active;
              analyze_structure f w (path @ [ name ]) st;
              w.w_active <- saved
          | None -> ()))

(* ------------------------------------------------------ graph analyses *)

let sorted_internal_refs d =
  d.d_refs |> List.map (fun r -> r.r_target) |> List.sort_uniq compare

let all_ids () = Hashtbl.fold (fun id _ acc -> id :: acc) defs [] |> List.sort compare

(* Forward reachability from [roots] over reference edges; returns for
   every reachable id the root it was first discovered from
   (deterministic: level-synchronous BFS with sorted frontiers). *)
let reach ~roots =
  let info : (string, string) Hashtbl.t = Hashtbl.create 256 in
  let frontier = ref (List.sort_uniq compare roots) in
  List.iter (fun r -> Hashtbl.replace info r r) !frontier;
  while !frontier <> [] do
    let next = ref [] in
    List.iter
      (fun id ->
        match find_def id with
        | None -> ()
        | Some d ->
            let root = Hashtbl.find info id in
            List.iter
              (fun t ->
                if not (Hashtbl.mem info t) then begin
                  Hashtbl.replace info t root;
                  next := t :: !next
                end)
              (sorted_internal_refs d))
      !frontier;
    frontier := List.sort_uniq compare !next
  done;
  info

(* Least fixpoint of "is, or references (directly or transitively), a
   base id". *)
let closure_towards ~base =
  let ok : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  List.iter (fun id -> Hashtbl.replace ok id ()) base;
  let ids = all_ids () in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun id ->
        if not (Hashtbl.mem ok id) then
          match find_def id with
          | Some d when List.exists (fun t -> Hashtbl.mem ok t) (sorted_internal_refs d) ->
              Hashtbl.replace ok id ();
              changed := true
          | _ -> ())
      ids
  done;
  ok

(* ----------------------------------------------------------- pass A1 *)

let run_a1 () =
  let ids = all_ids () in
  (* Taint: multi-source BFS over reverse edges from seeded defs,
     ignoring severed ([@sos.allow "A1"]) references. *)
  let rev : (string, string list) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun id ->
      match find_def id with
      | None -> ()
      | Some d ->
          List.iter
            (fun r ->
              if r.r_allow = None then
                Hashtbl.replace rev r.r_target
                  (id :: Option.value ~default:[] (Hashtbl.find_opt rev r.r_target)))
            d.d_refs)
    ids;
  let origin : (string, string) Hashtbl.t = Hashtbl.create 64 in
  let parent : (string, string) Hashtbl.t = Hashtbl.create 64 in
  let seeds0 =
    List.filter_map
      (fun id ->
        match find_def id with
        | None -> None
        | Some d -> (
            let live_seeds =
              List.filter (fun s -> s.s_allow = None) d.d_seeds
              |> List.sort (fun a b -> compare (a.s_line, a.s_desc) (b.s_line, b.s_desc))
            in
            let live_unres =
              List.filter_map (fun u -> if u.u_allow = None then Some u.u_path else None) d.d_unres
              |> List.sort_uniq compare
            in
            match (live_seeds, live_unres) with
            | s :: _, _ -> Some (id, Printf.sprintf "%s (%s:%d)" s.s_desc d.d_file s.s_line)
            | [], u :: _ -> Some (id, Printf.sprintf "unresolved call %s" u)
            | [], [] -> None))
      ids
  in
  List.iter (fun (id, why) -> Hashtbl.replace origin id why) seeds0;
  let frontier = ref (List.sort compare (List.map fst seeds0)) in
  while !frontier <> [] do
    let next = ref [] in
    List.iter
      (fun id ->
        List.sort compare (Option.value ~default:[] (Hashtbl.find_opt rev id))
        |> List.iter (fun caller ->
               if not (Hashtbl.mem origin caller) then begin
                 Hashtbl.replace origin caller (Hashtbl.find origin id);
                 Hashtbl.replace parent caller id;
                 next := caller :: !next
               end))
      !frontier;
    frontier := List.sort_uniq compare !next
  done;
  let tainted id = Hashtbl.mem origin id in
  let describe id =
    let rec chain acc id =
      match Hashtbl.find_opt parent id with
      | Some p when List.length acc < 12 -> chain (id :: acc) p
      | _ -> id :: acc
    in
    let path = List.rev (chain [] id) in
    let why = Hashtbl.find origin id in
    if List.length path <= 1 then Printf.sprintf "seed %s" why
    else Printf.sprintf "via %s; seed %s" (String.concat " -> " path) why
  in
  (* A binding whose own body calls a det-class creator is a det-class
     registration site; the sink check skips lib/obs itself (the
     registry internals wire det and runtime classes side by side). *)
  let det_reg_binding id =
    List.mem id det_reg_fns
    ||
    match find_def id with
    | None -> false
    | Some d -> List.exists (fun r -> List.mem r.r_target det_reg_fns) d.d_refs
  in
  List.iter
    (fun id ->
      match find_def id with
      | None -> ()
      | Some d ->
          if tainted id then
            if solver_entry id then
              add_violation ~file:d.d_file ~line:d.d_line ~pass:"A1"
                ~msg:
                  (Printf.sprintf
                     "det-class solver entry %s is wall-clock/RNG/DLS/env tainted: %s" id
                     (describe id))
            else if
              (not (starts_with ~prefix:"lib/obs/" d.d_file)) && not (det_reg_binding id)
            then (
              match List.filter det_reg_binding (sorted_internal_refs d) with
              | t :: _ ->
                  add_violation ~file:d.d_file ~line:d.d_line ~pass:"A1"
                    ~msg:
                      (Printf.sprintf "%s updates det-class telemetry (%s) while tainted: %s"
                         id t (describe id))
              | [] -> ()))
    ids;
  (* suppressed-hit accounting: allowed seeds always count; severed
     references count when they actually blocked a tainted or
     unresolved callee. *)
  List.iter
    (fun id ->
      match find_def id with
      | None -> ()
      | Some d ->
          List.iter
            (fun s ->
              match s.s_allow with
              | Some a -> suppress ~pass:"A1" ~a ~file:d.d_file ~line:s.s_line
              | None -> ())
            d.d_seeds;
          List.iter
            (fun u ->
              match u.u_allow with
              | Some a -> suppress ~pass:"A1" ~a ~file:d.d_file ~line:d.d_line
              | None -> ())
            d.d_unres;
          List.iter
            (fun r ->
              match r.r_allow with
              | Some a when tainted r.r_target ->
                  suppress ~pass:"A1" ~a ~file:d.d_file ~line:d.d_line
              | _ -> ())
            d.d_refs)
    ids

(* ----------------------------------------------------------- pass A2 *)

let run_a2 () =
  let ids = all_ids () in
  let reachable = reach ~roots:(List.filter a2_root ids) in
  let polls = closure_towards ~base:poll_fns in
  let polling l = List.exists (fun t -> Hashtbl.mem polls t) (List.sort_uniq compare l.l_refs) in
  (* a loop nested inside a polling loop of the same def is covered by
     its ancestor: the outer loop polls between re-entries *)
  let loop_ok l = polling l || List.exists polling l.l_parents in
  (* A def is poll-guarded when it only runs beneath a loop that polls
     every iteration: anything called from inside a polling loop, plus
     the forward closure of those callees. A bounded helper recursion
     (list walk, gcd) under Fast.run's polling main loop is covered —
     cancellation latency is one outer iteration. The driving loops
     themselves (roots with no polling ancestor) still must poll. An
     inline closure handed to a function with a polling loop (the
     window_of/assign arguments of Sos.Listing1.loop) counts as called
     from inside that loop. *)
  let guarded =
    let base = ref [] in
    let drives callee =
      match find_def callee with Some c -> List.exists polling c.d_loops | None -> false
    in
    List.iter
      (fun id ->
        match find_def id with
        | None -> ()
        | Some d ->
            List.iter
              (fun l -> if polling l then base := List.sort_uniq compare l.l_refs @ !base)
              d.d_loops;
            List.iter
              (fun (callee, refs) -> if drives callee then base := refs @ !base)
              d.d_callbacks)
      ids;
    let g = reach ~roots:!base in
    fun id -> Hashtbl.mem g id
  in
  List.iter
    (fun id ->
      match find_def id with
      | None -> ()
      | Some d -> (
          match Hashtbl.find_opt reachable id with
          | None -> ()
          | Some root when not (guarded id) ->
              List.iter
                (fun l ->
                  if not (loop_ok l) then
                    match l.l_allow with
                    | Some a -> suppress ~pass:"A2" ~a ~file:d.d_file ~line:l.l_line
                    | None ->
                        add_violation ~file:d.d_file ~line:l.l_line ~pass:"A2"
                          ~msg:
                            (Printf.sprintf
                               "%s loop in %s (reachable from %s) never reaches \
                                Robust.Context.poll/Chaos.point — un-cancellable" l.l_kind
                               id root))
                (List.sort (fun a b -> compare a.l_line b.l_line) d.d_loops);
              (* structure-level recursion: the function itself is the
                 loop; it passes if it reaches a poll site at all. *)
              let refs = sorted_internal_refs d in
              let self_rec =
                d.d_rec_group <> [] && List.exists (fun g -> List.mem g refs) d.d_rec_group
              in
              if self_rec && not (Hashtbl.mem polls id) then (
                match d.d_a2_allow with
                | Some a -> suppress ~pass:"A2" ~a ~file:d.d_file ~line:d.d_line
                | None ->
                    add_violation ~file:d.d_file ~line:d.d_line ~pass:"A2"
                      ~msg:
                        (Printf.sprintf
                           "recursive %s (reachable from %s) never reaches \
                            Robust.Context.poll/Chaos.point — un-cancellable" id root))
          | Some _ -> ()))
    ids

(* ----------------------------------------------------------- pass A3 *)

let run_a3 () =
  let ids = all_ids () in
  let reachable = reach ~roots:(List.filter a3_root ids) in
  List.iter
    (fun id ->
      match find_def id with
      | None -> ()
      | Some m -> (
          match m.d_mutable with
          | None -> ()
          | Some (ctor, allow) -> (
              let referers =
                List.filter
                  (fun rid ->
                    rid <> id && Hashtbl.mem reachable rid
                    &&
                    match find_def rid with
                    | Some rd -> List.mem id (sorted_internal_refs rd)
                    | None -> false)
                  ids
              in
              match referers with
              | [] -> ()
              | r :: _ -> (
                  let root = Hashtbl.find reachable r in
                  match allow with
                  | Some a -> suppress ~pass:"A3" ~a ~file:m.d_file ~line:m.d_line
                  | None ->
                      add_violation ~file:m.d_file ~line:m.d_line ~pass:"A3"
                        ~msg:
                          (Printf.sprintf
                             "module-toplevel mutable state %s (%s) is used by %s, which \
                              runs on pool workers (reachable from %s): use Atomic, Tls, \
                              or an explicit allow" id ctor r root)))))
    ids

(* ----------------------------------------------------------- pass A4 *)

let run_a4 () =
  let ids = all_ids () in
  let reachable =
    reach ~roots:(List.filter (fun id -> starts_with ~prefix:"Sosctl." id) ids)
  in
  let handled_in rel =
    match List.find_opt (fun f -> f.f_rel = rel) !files with
    | Some f -> f.f_handled
    | None -> []
  in
  List.iter
    (fun id ->
      match find_def id with
      | None -> ()
      | Some d -> (
          match Hashtbl.find_opt reachable id with
          | None -> ()
          | Some root ->
              List.iter
                (fun x ->
                  let ok =
                    match x.x_ctor with
                    | Some name ->
                        taxonomy_ctor name
                        || List.mem name [ "Invalid_argument"; "Assert_failure" ]
                        || List.mem name (handled_in d.d_file)
                    | None -> false
                  in
                  if not ok then
                    match x.x_allow with
                    | Some a -> suppress ~pass:"A4" ~a ~file:d.d_file ~line:x.x_line
                    | None ->
                        add_violation ~file:d.d_file ~line:x.x_line ~pass:"A4"
                          ~msg:
                            (Printf.sprintf
                               "%s in %s is reachable from sosctl (%s) but maps to no \
                                Robust.Failure class" x.x_desc id root))
                (List.sort (fun a b -> compare (a.x_line, a.x_desc) (b.x_line, b.x_desc))
                   d.d_raises)))
    ids

(* ------------------------------------------------------------- output *)

let edge_count () =
  List.fold_left
    (fun acc id ->
      match find_def id with
      | None -> acc
      | Some d -> acc + List.length (sorted_internal_refs d))
    0 (all_ids ())

let json_summary ~files_checked ~open_v ~sup =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (Printf.sprintf "  \"files_checked\": %d,\n" files_checked);
  Buffer.add_string buf (Printf.sprintf "  \"functions\": %d,\n" (Hashtbl.length defs));
  Buffer.add_string buf (Printf.sprintf "  \"edges\": %d,\n" (edge_count ()));
  Buffer.add_string buf (Printf.sprintf "  \"violations\": %d,\n" (List.length open_v));
  Buffer.add_string buf (Printf.sprintf "  \"suppressed\": %d,\n" (List.length sup));
  Buffer.add_string buf (Printf.sprintf "  \"allow_sites\": %d,\n" (List.length !allows));
  Buffer.add_string buf "  \"passes\": [\n";
  let pass_row id =
    let v = List.length (List.filter (fun v -> v.v_pass = id) open_v) in
    let s = List.length (List.filter (fun (p, _, _) -> p = id) sup) in
    Printf.sprintf
      "    {\"id\": \"%s\", \"name\": \"%s\", \"violations\": %d, \"suppressed\": %d}" id
      (pass_title id) v s
  in
  Buffer.add_string buf (String.concat ",\n" (List.map pass_row pass_ids));
  Buffer.add_string buf "\n  ],\n  \"violations_list\": [\n";
  let v_row v =
    Printf.sprintf "    {\"file\": \"%s\", \"line\": %d, \"pass\": \"%s\", \"message\": \"%s\"}"
      (json_escape v.v_file) v.v_line v.v_pass (json_escape v.v_msg)
  in
  Buffer.add_string buf (String.concat ",\n" (List.map v_row open_v));
  Buffer.add_string buf "\n  ],\n  \"allows\": [\n";
  let a_row a =
    Printf.sprintf
      "    {\"file\": \"%s\", \"line\": %d, \"pass\": \"%s\", \"reason\": \"%s\", \"uses\": %d}"
      (json_escape a.a_file) a.a_line a.a_rule (json_escape a.a_reason) a.a_uses
  in
  let sorted_allows =
    List.sort (fun a b -> compare (a.a_file, a.a_line) (b.a_file, b.a_line)) !allows
  in
  Buffer.add_string buf (String.concat ",\n" (List.map a_row sorted_allows));
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf

let baseline_counts sup =
  List.map (fun id -> (id, List.length (List.filter (fun (p, _, _) -> p = id) sup))) pass_ids

(* --------------------------------------------------------------- main *)

let usage =
  "sosgraph [--root DIR] [--json PATH] [--baseline PATH] [--write-baseline PATH] [--exclude \
   REL]... [--exclude-dir REL]... [DIR]..."

let () =
  let root = ref "." in
  let json_out = ref None in
  let baseline = ref None in
  let write_base = ref None in
  let excludes = ref [] in
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
    | "--exclude" :: v :: rest ->
        excludes := v :: !excludes;
        parse_args rest
    | "--exclude-dir" :: v :: rest ->
        exclude_dirs := v :: !exclude_dirs;
        parse_args rest
    | ("--help" | "-h") :: _ ->
        print_endline usage;
        exit 0
    | flag :: _ when starts_with ~prefix:"--" flag ->
        prerr_endline ("sosgraph: unknown flag " ^ flag);
        prerr_endline usage;
        exit 2
    | d :: rest ->
        dirs := d :: !dirs;
        parse_args rest
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let dirs = if !dirs = [] then [ "lib"; "bin"; "bench" ] else List.rev !dirs in
  let scan =
    Lintkit.scan_files ~root:!root ~dirs
      ~excludes:
        ([
           "lib/engine/pool.ml";
           "lib/engine/pool_sequential.ml";
           "lib/robust/tls.ml";
           "lib/robust/tls_sequential.ml";
         ]
        @ !excludes)
      ~exclude_dirs:!exclude_dirs
    |> List.filter (fun rel -> Filename.check_suffix rel ".ml")
  in
  let parsed =
    List.filter_map
      (fun rel ->
        match space_of_rel rel with
        | None -> None
        | Some (space, top) -> (
            match Lintkit.parse_file ~root:!root rel with
            | Ok (Lintkit.Impl st) ->
                Some
                  {
                    f_rel = rel;
                    f_space = space;
                    f_top = top;
                    f_ast = st;
                    f_aliases = [];
                    f_handled = [];
                  }
            | Ok (Lintkit.Intf _) -> None
            | Error msg ->
                parse_errors := msg :: !parse_errors;
                None))
      scan
  in
  (match !parse_errors with
  | [] -> ()
  | errs ->
      List.iter prerr_endline (List.sort compare errs);
      exit 2);
  files := parsed;
  (* phase 1: defs, module set, sibling spaces, wrapper names *)
  List.iter
    (fun f ->
      (match f.f_top with
      | [ wrapname; modname ] ->
          Hashtbl.replace wraps wrapname ();
          Hashtbl.replace siblings (f.f_space, modname) (wrapname ^ "." ^ modname)
      | [ modname ] -> Hashtbl.replace siblings (f.f_space, modname) modname
      | _ -> ());
      collect_structure f f.f_top f.f_ast)
    parsed;
  (* phase 2: per-file reference/seed/loop/raise collection *)
  List.iter
    (fun f ->
      let w = { w_f = f; w_active = []; w_opens = []; w_loops = [] } in
      analyze_structure f w f.f_top f.f_ast)
    parsed;
  (* phase 3: the four passes *)
  run_a1 ();
  run_a2 ();
  run_a3 ();
  run_a4 ();
  (* an exemption that exempts nothing is itself a defect *)
  List.iter
    (fun a ->
      if a.a_uses = 0 then
        add_violation ~file:a.a_file ~line:a.a_line ~pass:"A0"
          ~msg:
            (Printf.sprintf "unused [@sos.allow \"%s: ...\"]: it suppresses no finding" a.a_rule))
    (List.sort (fun a b -> compare (a.a_file, a.a_line) (b.a_file, b.a_line)) !allows);
  let open_v =
    List.sort_uniq
      (fun a b ->
        compare (a.v_file, a.v_line, a.v_pass, a.v_msg) (b.v_file, b.v_line, b.v_pass, b.v_msg))
      !violations
  in
  List.iter (fun v -> Printf.printf "%s:%d %s %s\n" v.v_file v.v_line v.v_pass v.v_msg) open_v;
  let sup = !suppressed in
  let baseline_failures =
    match !baseline with
    | Some p -> Lintkit.check_baseline ~hint:"tools/analysis" p (baseline_counts sup)
    | None -> []
  in
  List.iter print_endline baseline_failures;
  (match !write_base with
  | Some p -> Lintkit.write_baseline p (baseline_counts sup)
  | None -> ());
  (match !json_out with
  | Some p ->
      let oc = open_out p in
      output_string oc (json_summary ~files_checked:(List.length scan) ~open_v ~sup);
      close_out oc
  | None -> ());
  Printf.printf
    "sosgraph: %d files, %d functions, %d edges, %d violations, %d suppressed hits via %d \
     [@sos.allow] sites\n"
    (List.length scan) (Hashtbl.length defs) (edge_count ()) (List.length open_v)
    (List.length sup) (List.length !allows);
  if open_v <> [] || baseline_failures <> [] then exit 1
