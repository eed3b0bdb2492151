(* Rules — soslint's per-file rules R1-R7.

   The repo's reproducibility guarantee (byte-identical solver output and
   deterministic telemetry snapshots at any -j) rests on conventions that
   the compiler cannot check: seeded randomness only, one wall-clock
   chokepoint, Atomic-not-Mutex in libraries, stdout purity, ordered
   Hashtbl emission, the Robust.Failure taxonomy on hot paths, and no
   polymorphic compare on floats. Each rule is a syntactic match on one
   parsed file (no typing); see doc/LINT.md for the catalogue and the
   suppression policy.

   A hit is suppressible only by an explicit attribute carrying the rule
   id and a reason:

     let[@sos.allow "R5: zeroing is order-insensitive"] reset () = ...
     [@@@sos.allow "R3: this file is the sanctioned blocking queue"]

   Suppressed hits are counted, reported in the JSON summary, and checked
   against the committed baseline so suppressions cannot creep in
   silently. *)

open Ppxlib
open Lintkit

let add_hit ~rel ~loc ~rule ~msg ~active =
  if rule_in_scope rule rel then
    match List.find_opt (fun a -> a.a_rule = rule) active with
    | Some a -> suppress a
    | None ->
        report ~file:rel ~line:loc.loc_start.pos_lnum
          ~col:(loc.loc_start.pos_cnum - loc.loc_start.pos_bol)
          ~rule msg

(* --------------------------------------------------- syntactic checks *)

(* Module aliases: [module U = Unix] lets [U.time ()] evade a path match,
   so every file's alias bindings are collected up front (including inside
   nested modules — parse-only, no scoping subtleties honoured) and ident
   paths are expanded through them before rule matching. Chains
   ([module A = U]) resolve through a bounded walk. *)

let collect_aliases st =
  let aliases : (string, string list) Hashtbl.t = Hashtbl.create 8 in
  let iter =
    object
      inherit Ast_traverse.iter as super

      method! module_binding mb =
        (match (mb.pmb_name.txt, mb.pmb_expr.pmod_desc) with
        | Some name, Pmod_ident { txt; _ } -> Hashtbl.replace aliases name (flatten txt)
        | _ -> ());
        super#module_binding mb
    end
  in
  iter#structure st;
  aliases

let expand_aliases aliases parts =
  let rec go fuel parts =
    match parts with
    | head :: rest when fuel > 0 -> (
        match Hashtbl.find_opt aliases head with
        | Some target when target <> parts -> go (fuel - 1) (target @ rest)
        | _ -> parts)
    | _ -> parts
  in
  go 8 parts

let ident_rule parts =
  match parts with
  | [ "Random" ] | "Random" :: _ ->
      Some ("R1", "stdlib Random is global mutable state; use Prelude.Rng (seeded, splittable)")
  | [ "Unix"; "gettimeofday" ] | [ "Unix"; "time" ] | [ "Sys"; "time" ] ->
      Some
        ( "R2",
          Printf.sprintf "%s: wall-clock reads go through Prelude.Clock only"
            (String.concat "." parts) )
  | "Mutex" :: _ | "Condition" :: _ ->
      Some
        ( "R3",
          Printf.sprintf "%s: libraries are Atomic-only (deterministic, 4.14-safe)"
            (String.concat "." parts) )
  | [ p ]
    when List.mem p
           [
             "print_string";
             "print_endline";
             "print_newline";
             "print_int";
             "print_float";
             "print_char";
             "print_bytes";
           ] ->
      Some ("R4", p ^ ": stdout belongs to sosctl results, not library code")
  | [ "Printf"; "printf" ] | [ "Format"; "printf" ] | [ "Format"; "print_string" ]
  | [ "Format"; "print_newline" ] | [ "Format"; "print_float" ] | [ "Format"; "print_int" ] ->
      Some
        ( "R4",
          String.concat "." parts ^ ": stdout belongs to sosctl results, not library code" )
  | [ "stdout" ] -> Some ("R4", "stdout handle used from library code")
  | [ "Hashtbl"; "iter" ] | [ "Hashtbl"; "fold" ] ->
      Some
        ( "R5",
          String.concat "." parts
          ^ ": iteration order is unspecified; sort keys before any emission/digest" )
  | [ "failwith" ] ->
      Some ("R6", "failwith: hot paths raise Robust.Failure carriers (or Failure.internal_error)")
  | [ "invalid_arg" ] ->
      Some ("R6", "invalid_arg: hot paths raise Robust.Failure carriers")
  | _ -> None

(* R7: a syntactic float-bearing expression — float literal, float
   arithmetic, a float stdlib constant, or int->float conversion
   anywhere in the subtree. Parse-only analysis cannot see types, so
   float->int conversions ([int_of_float], [truncate], [Float.to_int],
   [Float.compare], ...) are barriers: their result is not a float even
   though their arguments are. The heuristic has no false positives on
   this repo and catches the patterns that actually bite (nan-unsafe
   [=], boxed polymorphic [compare]/[min]). *)
let rec float_bearing e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_ident { txt = Lident ("nan" | "infinity" | "neg_infinity" | "epsilon_float" | "max_float" | "min_float"); _ } ->
      true
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt = Lident ("int_of_float" | "truncate"); _ }; _ }, _) ->
      false
  | Pexp_apply
      ( {
          pexp_desc =
            Pexp_ident
              {
                txt =
                  Ldot
                    ( Lident "Float",
                      ( "to_int" | "compare" | "equal" | "is_nan" | "is_finite" | "is_integer"
                      | "sign_bit" | "to_string" ) );
                _;
              };
          _;
        },
        _ ) ->
      false
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt = Lident ("+." | "-." | "*." | "/." | "**" | "~-."); _ }; _ }, _) ->
      true
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt = Lident "float_of_int"; _ }; _ }, _) -> true
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt = Ldot (Lident "Float", _); _ }; _ }, args) ->
      List.exists (fun (_, a) -> float_bearing a) args
  | Pexp_apply (f, args) -> float_bearing f || List.exists (fun (_, a) -> float_bearing a) args
  | Pexp_tuple es -> List.exists float_bearing es
  | Pexp_construct (_, Some e) -> float_bearing e
  | Pexp_field (e, _) -> float_bearing e
  | _ -> false

let poly_cmp_ops = [ "="; "<>"; "compare"; "min"; "max" ]

(* ------------------------------------------------------- the traversal *)

let lint_structure ~rel st =
  let aliases = collect_aliases st in
  let floor_allows =
    List.filter_map
      (function
        | { pstr_desc = Pstr_attribute a; _ } -> allow_of_attribute ~rel a
        | _ -> None)
      st
  in
  let iter =
    object (self)
      inherit Ast_traverse.iter as super
      val mutable active : allow_site list = floor_allows

      method with_attrs : 'a. attributes -> ('a -> unit) -> 'a -> unit =
        fun attrs k x ->
          let added = List.filter_map (allow_of_attribute ~rel) attrs in
          let saved = active in
          active <- added @ active;
          k x;
          active <- saved

      method hit loc rule msg = add_hit ~rel ~loc ~rule ~msg ~active

      method check_expr e =
        (match e.pexp_desc with
        | Pexp_ident { txt; loc } -> (
            let parts = flatten txt in
            let expanded = expand_aliases aliases parts in
            match ident_rule expanded with
            | Some (rule, msg) ->
                let msg =
                  if expanded == parts then msg
                  else Printf.sprintf "%s (via module alias %s)" msg (List.hd parts)
                in
                self#hit loc rule msg
            | None -> ())
        | Pexp_apply
            ( { pexp_desc = Pexp_ident { txt = Lident "raise"; _ }; _ },
              [ (_, { pexp_desc = Pexp_construct ({ txt = Lident "Exit"; loc }, None); _ }) ] )
          ->
            self#hit loc "R6" "raise Exit: hot paths raise Robust.Failure carriers"
        | Pexp_apply ({ pexp_desc = Pexp_ident { txt = Lident op; loc }; _ }, args)
          when List.mem op poly_cmp_ops && List.exists (fun (_, a) -> float_bearing a) args ->
            self#hit loc "R7"
              (Printf.sprintf
                 "polymorphic %s on a float-bearing expression; use Float.equal/Float.compare"
                 op)
        | _ -> ())

      method! expression e =
        self#with_attrs e.pexp_attributes
          (fun e ->
            self#check_expr e;
            super#expression e)
          e

      method! value_binding vb =
        self#with_attrs vb.pvb_attributes super#value_binding vb

      method! core_type t =
        self#with_attrs t.ptyp_attributes
          (fun t ->
            (match t.ptyp_desc with
            | Ptyp_constr ({ txt; loc }, _) -> (
                match flatten txt with
                | ("Mutex" | "Condition") :: _ ->
                    self#hit loc "R3"
                      (String.concat "." (flatten txt)
                      ^ ": libraries are Atomic-only (deterministic, 4.14-safe)")
                | _ -> ())
            | _ -> ());
            super#core_type t)
          t

      (* Floor attributes were pre-collected; skip them here so each
         site registers exactly once. *)
      method! structure_item it =
        match it.pstr_desc with
        | Pstr_attribute _ -> ()
        | _ -> super#structure_item it
    end
  in
  iter#structure st

let lint_signature ~rel sg =
  let floor_allows =
    List.filter_map
      (function
        | { psig_desc = Psig_attribute a; _ } -> allow_of_attribute ~rel a
        | _ -> None)
      sg
  in
  let iter =
    object
      inherit Ast_traverse.iter as super
      val mutable active : allow_site list = floor_allows

      method! core_type t =
        let added = List.filter_map (allow_of_attribute ~rel) t.ptyp_attributes in
        let saved = active in
        active <- added @ active;
        (match t.ptyp_desc with
        | Ptyp_constr ({ txt; loc }, _) -> (
            match flatten txt with
            | ("Mutex" | "Condition") :: _ ->
                add_hit ~rel ~loc ~rule:"R3"
                  ~msg:
                    (String.concat "." (flatten txt)
                    ^ ": libraries are Atomic-only (deterministic, 4.14-safe)")
                  ~active
            | _ -> ())
        | _ -> ());
        super#core_type t;
        active <- saved

      method! signature_item it =
        match it.psig_desc with
        | Psig_attribute _ -> ()
        | _ -> super#signature_item it
    end
  in
  iter#signature sg

let lint_file ~rel = function
  | Impl st -> lint_structure ~rel st
  | Intf sg -> lint_signature ~rel sg
