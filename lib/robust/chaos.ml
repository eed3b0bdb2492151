exception Injected of string

type rule =
  | Fail_indices of { indices : int list; attempts : int }
  | Fail_prob of float
  | Delay of { seconds : float; prob : float }

let () =
  Printexc.register_printer (function
    | Injected site -> Some (Printf.sprintf "chaos: injected fault at %s" site)
    | _ -> None)

let c_injected = Obs.Metrics.runtime_counter "robust.chaos.injected"
let c_delays = Obs.Metrics.runtime_counter "robust.chaos.delays"

(* The whole configuration swaps atomically so [point] never sees a torn
   state; readers take one [Atomic.get]. *)
let state : (int * (string * rule) list) option Atomic.t = Atomic.make None

let armed () = Atomic.get state <> None
let arm_rules ?(seed = 0) rules = Atomic.set state (Some (seed, rules))
let disarm () = Atomic.set state None

(* Out-of-scope probabilistic draws (the pool's worker site): one
   process-wide stream under a spinlock. Scheduling-dependent by design. *)
let global_lock = Atomic.make false

let global_rng : Prelude.Rng.t option ref = ref None
[@@sos.allow
  "A3: the out-of-scope chaos stream is process-wide and scheduling-dependent by design; \
   guarded by the [global_lock] spinlock"]

let global_draw seed =
  while not (Atomic.compare_and_set global_lock false true) do () done;
  let rng =
    match !global_rng with
    | Some r -> r
    | None ->
        let r = Prelude.Rng.create (seed lxor 0x0C4A05) in
        global_rng := Some r;
        r
  in
  let v = Prelude.Rng.float rng 1.0 in
  Atomic.set global_lock false;
  v

(* In-scope draws are a pure function of (seed, site, index, attempt, hit):
   deterministic at any domain count. *)
let scoped_draw seed site (ctx : Context.t) =
  let hits = Context.hits ctx in
  let hit = try Hashtbl.find hits site with Not_found -> 0 in
  Hashtbl.replace hits site (hit + 1);
  let rng = Prelude.Rng.create3 (seed lxor Hashtbl.hash site) ctx.index ((ctx.attempt * 0x10001) + hit) in
  Prelude.Rng.float rng 1.0

let draw seed site =
  match Context.current () with
  | Some ctx -> scoped_draw seed site ctx
  | None -> global_draw seed

let inject site =
  Obs.Metrics.incr c_injected;
  raise (Injected site)

let apply seed site = function
  | Fail_indices { indices; attempts } -> begin
      match Context.current () with
      | Some ctx when List.mem ctx.Context.index indices && ctx.Context.attempt < attempts ->
          inject site
      | _ -> ()
    end
  | Fail_prob p -> if draw seed site < p then inject site
  | Delay { seconds; prob } ->
      if prob >= 1.0 || draw seed site < prob then begin
        Obs.Metrics.incr c_delays;
        Unix.sleepf seconds
      end

let point site =
  match Atomic.get state with
  | None -> ()
  | Some (seed, rules) ->
      List.iter (fun (s, rule) -> if String.equal s site then apply seed site rule) rules

(* ------------------------------------------------------------- spec DSL *)

let parse_clause clause =
  let clause = String.trim clause in
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let float_of s = float_of_string_opt s in
  match String.index_opt clause '@' with
  | Some at -> begin
      let site = String.sub clause 0 at in
      let rest = String.sub clause (at + 1) (String.length clause - at - 1) in
      let indices_s, attempts =
        match String.index_opt rest ':' with
        | None -> (rest, max_int)
        | Some colon ->
            let opt = String.sub rest (colon + 1) (String.length rest - colon - 1) in
            let n =
              match String.split_on_char '=' opt with
              | [ "attempts"; n ] -> int_of_string_opt n
              | _ -> None
            in
            (String.sub rest 0 colon, Option.value n ~default:(-1))
      in
      (* attempts=0 would be a no-op rule; reject it as a spec typo. *)
      if attempts < 1 then fail "bad attempts bound in %S" clause
      else
        let indices = String.split_on_char ',' indices_s |> List.map int_of_string_opt in
        if List.exists Option.is_none indices || indices = [] then
          fail "bad task-index list in %S" clause
        else Ok (site, Fail_indices { indices = List.filter_map Fun.id indices; attempts })
    end
  | None -> begin
      match String.index_opt clause '+' with
      | Some plus -> begin
          let site = String.sub clause 0 plus in
          let rest = String.sub clause (plus + 1) (String.length clause - plus - 1) in
          let secs_s, prob =
            match String.index_opt rest '~' with
            | None -> (rest, Some 1.0)
            | Some tld ->
                ( String.sub rest 0 tld,
                  float_of (String.sub rest (tld + 1) (String.length rest - tld - 1)) )
          in
          match (float_of secs_s, prob) with
          | Some seconds, Some prob when seconds >= 0.0 && prob >= 0.0 && prob <= 1.0 ->
              Ok (site, Delay { seconds; prob })
          | _ -> fail "bad delay clause %S (want SITE+SECS[~P])" clause
        end
      | None -> begin
          match String.index_opt clause '~' with
          | Some tld -> begin
              let site = String.sub clause 0 tld in
              match float_of (String.sub clause (tld + 1) (String.length clause - tld - 1)) with
              | Some p when p >= 0.0 && p <= 1.0 -> Ok (site, Fail_prob p)
              | _ -> fail "bad probability in %S" clause
            end
          | None -> fail "bad chaos clause %S (want SITE@IDXS[:attempts=N], SITE~P, or SITE+SECS[~P])" clause
        end
    end

let parse spec =
  let clauses =
    String.split_on_char ';' spec |> List.map String.trim |> List.filter (fun c -> c <> "")
  in
  if clauses = [] then Error "empty chaos spec"
  else
    List.fold_left
      (fun acc clause ->
        match (acc, parse_clause clause) with
        | Error _, _ -> acc
        | _, (Error _ as e) -> e
        | Ok rules, Ok rule -> Ok (rule :: rules))
      (Ok []) clauses
    |> Result.map List.rev

let arm ?seed spec =
  match parse spec with
  | Error _ as e -> e
  | Ok rules ->
      arm_rules ?seed rules;
      Ok ()
