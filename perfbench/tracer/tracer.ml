(* tracer — in-process replay of a perfbench workload, timing every call
   into a library layer from the outside.

   [tracer batch SPECS] replays what `sosctl batch --stream` (algorithm
   window) does per spec — Workload.Specs.read, Workload.Sos_gen.generate,
   Sos.Instance.validate / of_string_checked, Sos.Fast.run,
   Sos.Schedule.validate, Sos.Bounds, line formatting — through
   Engine.Batch.stream_seq: once untraced at -j N (N = sosctl's default),
   then untraced and traced at -j 1, twice each.

   [tracer serve REQUESTS SHARDS] replays what `sosctl serve --checkpoint
   PATH --shards SHARDS` does per request — Serve.Protocol.parse,
   Sos.Online.Session add/solve/stats, Robust.Journal.Sharded.append —
   directly (untraced and traced, twice each), then runs the real
   Serve.Server.serve over an in-process channel pair.

   Spans (name, start, end, parent span, spec or request id, minor words)
   are kept in memory and written to spans.tsv when the traced passes end;
   a span's self time is its duration minus the time its child spans
   cover. Every pass's output bytes are digested so the caller can check
   the replay against the real binary's stdout. Files go to the current
   directory; one JSON object goes to stdout. *)

external now_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let clock () = Int64.to_int (now_ns ())
let words () = int_of_float (Gc.minor_words ())
let seconds ns = float_of_int ns /. 1e9

(* ------------------------------------------------------------- spans *)

let span_names =
  [| "run"; "specs.read"; "task"; "gen"; "instance"; "fast"; "schedule"; "bounds";
     "format"; "request"; "protocol"; "online.open"; "online.add"; "online.solve";
     "online.stats"; "online.lb"; "journal"; "calibrate" |]

let name_index name =
  let rec go i = if span_names.(i) = name then i else go (i + 1) in
  go 0

let s_read = name_index "specs.read"
let s_task = name_index "task"
let s_gen = name_index "gen"
let s_instance = name_index "instance"
let s_fast = name_index "fast"
let s_schedule = name_index "schedule"
let s_bounds = name_index "bounds"
let s_format = name_index "format"
let s_request = name_index "request"
let s_protocol = name_index "protocol"
let s_open = name_index "online.open"
let s_add = name_index "online.add"
let s_solve = name_index "online.solve"
let s_stats = name_index "online.stats"
let s_lb = name_index "online.lb"
let s_journal = name_index "journal"
let s_calibrate = name_index "calibrate"

(* Struct-of-arrays span store. Recording is single-threaded: traced
   passes run at -j 1, where Engine.Pool runs every task on the caller. *)
type column = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

(* Columns live outside the OCaml heap, so a million recorded spans add
   nothing to the major GC's marking work in the passes being timed. *)
type store = {
  mutable on : bool;
  mutable len : int;
  mutable cur : int;  (** innermost open span, -1 at top level *)
  mutable name : column;
  mutable id : column;
  mutable parent : column;
  mutable start : column;
  mutable stop : column;
  mutable words : column;  (** minor words allocated inside the span *)
}

let column n : column = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n

let spans =
  let a () = column 4096 in
  { on = false; len = 0; cur = -1; name = a (); id = a (); parent = a (); start = a ();
    stop = a (); words = a () }

let reset_spans ~on =
  spans.on <- on;
  spans.len <- 0;
  spans.cur <- -1

let grow () =
  let g (a : column) =
    let n = Bigarray.Array1.dim a in
    let b = column (2 * n) in
    Bigarray.Array1.blit a (Bigarray.Array1.sub b 0 n);
    b
  in
  spans.name <- g spans.name;
  spans.id <- g spans.id;
  spans.parent <- g spans.parent;
  spans.start <- g spans.start;
  spans.stop <- g spans.stop;
  spans.words <- g spans.words

let enter name id =
  if spans.len = Bigarray.Array1.dim spans.name then grow ();
  let i = spans.len in
  spans.len <- i + 1;
  spans.name.{i} <- name;
  spans.id.{i} <- id;
  spans.parent.{i} <- spans.cur;
  spans.cur <- i;
  spans.words.{i} <- words ();
  spans.start.{i} <- clock ();
  i

let leave i =
  spans.stop.{i} <- clock ();
  spans.words.{i} <- words () - spans.words.{i};
  spans.cur <- spans.parent.{i}

let span name id f =
  if not spans.on then f ()
  else begin
    let i = enter name id in
    match f () with
    | v ->
        leave i;
        v
    | exception e ->
        leave i;
        raise e
  end

(* The tracer's own cost per span, split at the span's edges: [inside] is
   the part the span's recorded duration includes, [outside] the part that
   lands in its parent's self time (or between top-level spans). Measured
   by recording empty spans, in ns; self times are corrected by both. *)
type cost = { inside : float; outside : float }

let calibrate () =
  let k = 200_000 in
  reset_spans ~on:true;
  let t0 = clock () in
  for _ = 1 to k do
    span s_calibrate 0 ignore
  done;
  let total = clock () - t0 in
  let inside = ref 0 in
  for i = 0 to spans.len - 1 do
    inside := !inside + (spans.stop.{i} - spans.start.{i})
  done;
  reset_spans ~on:false;
  let per x = float_of_int x /. float_of_int k in
  { inside = per !inside; outside = per (total - !inside) }

(* Self time (corrected for the tracer's cost) and self minor words: a
   span's own figure minus what its direct children cover. *)
type self = { ns : float array; w : int array }

let self_times cost =
  let ns =
    Array.init spans.len (fun i -> float_of_int (spans.stop.{i} - spans.start.{i}) -. cost.inside)
  in
  let w = Array.init spans.len (fun i -> spans.words.{i}) in
  for i = 0 to spans.len - 1 do
    let p = spans.parent.{i} in
    if p >= 0 then begin
      ns.(p) <-
        ns.(p) -. float_of_int (spans.stop.{i} - spans.start.{i}) -. cost.outside;
      w.(p) <- w.(p) - spans.words.{i}
    end
  done;
  { ns; w }

(* Per span name: calls, Σ self ns, Σ self minor words. *)
type agg = { calls : int array; self_ns : float array; agg_words : int array }

let aggregate self =
  let k = Array.length span_names in
  let a = { calls = Array.make k 0; self_ns = Array.make k 0.0; agg_words = Array.make k 0 } in
  for i = 0 to spans.len - 1 do
    let n = spans.name.{i} in
    a.calls.(n) <- a.calls.(n) + 1;
    a.self_ns.(n) <- a.self_ns.(n) +. self.ns.(i);
    a.agg_words.(n) <- a.agg_words.(n) + self.w.(i)
  done;
  a

let durations name =
  let acc = ref [] in
  for i = spans.len - 1 downto 0 do
    if spans.name.{i} = name then acc := (spans.stop.{i} - spans.start.{i}) :: !acc
  done;
  Array.of_list !acc

let spans_file = "spans.tsv"

let write_spans path self =
  Out_channel.with_open_text path (fun oc ->
      output_string oc "name\tid\tparent\tstart_ns\tend_ns\tself_ns\tself_minor_words\n";
      let t0 = if spans.len > 0 then spans.start.{0} else 0 in
      for i = 0 to spans.len - 1 do
        Printf.fprintf oc "%s\t%d\t%d\t%d\t%d\t%.0f\t%d\n" span_names.(spans.name.{i})
          spans.id.{i} spans.parent.{i}
          (spans.start.{i} - t0)
          (spans.stop.{i} - t0)
          self.ns.(i) self.w.(i)
      done)

(* -------------------------------------------------------------- json *)

type json = I of int | F of float | S of string | O of (string * json) list

let rec to_json = function
  | I i -> string_of_int i
  | F f -> if Float.is_finite f then Printf.sprintf "%.9g" f else "null"
  | S s -> Printf.sprintf "%S" s
  | O kvs ->
      "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (to_json v)) kvs) ^ "}"

(* One entry per layer: its member spans' calls, Σ self seconds (plus
   [extra_s] measured apart from the spans) and Σ self minor words. *)
let layer_json ?(extra_s = fun _ -> 0.0) a names =
  O
    (List.map
       (fun (layer, members) ->
         let members = List.map name_index members in
         let sum f = List.fold_left (fun s n -> s + f n) 0 members in
         let self = List.fold_left (fun s n -> s +. a.self_ns.(n)) 0.0 members in
         ( layer,
           O
             [
               ("calls", I (sum (fun n -> a.calls.(n))));
               ("self_s", F ((self /. 1e9) +. extra_s layer));
               ("minor_words", I (sum (fun n -> a.agg_words.(n))));
             ] ))
       names)

let tracer_json cost =
  let per_span = cost.inside +. cost.outside in
  O
    [
      ("span_cost_ns", F per_span);
      ("spans", I spans.len);
      ("tracer_s", F (float_of_int spans.len *. per_span /. 1e9));
    ]

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0 else sorted.(min (n - 1) (int_of_float (q *. float_of_int n)))

let hex_digest buf = Digest.to_hex (Digest.string (Buffer.contents buf))

(* ------------------------------------------------------------- batch *)

type solved = { label : string; inst : Sos.Instance.t; sched : Sos.Schedule.t; iters : int }

let family_of_name name =
  List.find_opt
    (fun f -> f.Workload.Sos_gen.name = name)
    (Workload.Sos_gen.all_families
    @ List.map Workload.Sos_gen.unit_of Workload.Sos_gen.all_families)

let invalid reason = failwith (Robust.Failure.invalid_to_string reason)

(* The per-spec work of `sosctl batch` with the default window algorithm
   (which requires m >= 3), spec i's generator seeded by (0, i, attempt)
   as sosctl's default --seed 0 does. *)
let solve idx (r : Workload.Specs.record) () =
  span s_task idx @@ fun () ->
  let label, inst =
    match r.payload with
    | Workload.Specs.Bad msg -> failwith msg
    | Workload.Specs.File path ->
        span s_instance idx (fun () ->
            let text = In_channel.with_open_text path In_channel.input_all in
            match Sos.Instance.of_string_checked ~window:true text with
            | Ok inst -> (path, inst)
            | Error reason -> invalid reason)
    | Workload.Specs.Gen { family; n; m; scale } ->
        let fam =
          match family_of_name family with
          | Some f -> f
          | None -> failwith ("unknown family " ^ family)
        in
        let scale = Option.value scale ~default:Workload.Sos_gen.default_scale in
        let rng = Prelude.Rng.create3 0 idx (Robust.Context.attempt ()) in
        let inst =
          span s_gen idx (fun () -> Workload.Sos_gen.generate rng fam ~n ~m ~scale ())
        in
        span s_instance idx (fun () ->
            match Sos.Instance.validate ~window:true inst with
            | Ok _ -> ()
            | Error reason -> invalid reason);
        (fam.Workload.Sos_gen.name, inst)
  in
  let sched, iters = span s_fast idx (fun () -> Sos.Fast.run_count inst) in
  span s_schedule idx (fun () ->
      match Sos.Schedule.validate sched with
      | Ok () -> ()
      | Error v -> failwith v.Sos.Schedule.reason);
  { label; inst; sched; iters }

type batch_pass = {
  wall_ns : int;
  specs : int;
  ok : int;
  iterations : int;
  blocks : int;
  minor_words : float;
  minor_collections : int;
  digest : string;
}

let batch_pass ~path ~domains ~traced =
  reset_spans ~on:traced;
  let src =
    match Workload.Specs.open_path path with Ok s -> s | Error msg -> failwith msg
  in
  let out = Buffer.create (1 lsl 20) in
  let ok = ref 0 and iterations = ref 0 and blocks = ref 0 in
  let producer i =
    match span s_read i (fun () -> Workload.Specs.read src) with
    | None -> None
    | Some r -> Some (solve i r)
  in
  (* The line `sosctl batch` writes for each spec, byte for byte. *)
  let emit idx (outcome : solved Engine.Batch.outcome) =
    match outcome with
    | Ok s ->
        let makespan = s.sched.Sos.Schedule.makespan in
        let lb, ratio =
          span s_bounds idx (fun () ->
              ( Sos.Bounds.lower_bound s.inst,
                Sos.Bounds.theorem_3_3_bound s.inst ~makespan ))
        in
        span s_format idx (fun () ->
            let nblocks = List.length s.sched.Sos.Schedule.steps in
            Buffer.add_string out
              (Printf.sprintf "%d ok %s n=%d m=%d makespan=%d lb=%d ratio=%.4f blocks=%d\n"
                 idx s.label (Sos.Instance.n s.inst) s.inst.Sos.Instance.m makespan lb
                 ratio nblocks);
            incr ok;
            iterations := !iterations + s.iters;
            blocks := !blocks + nblocks)
    | Error e ->
        (* Not sosctl's error line (which also names the record's line
           number): the workloads have no failing spec, so any error here
           shows up as a digest mismatch against sosctl's stdout. *)
        Buffer.add_string out
          (Printf.sprintf "%d error %s: %s\n" idx
             (Robust.Failure.class_name e.Engine.Batch.failure)
             e.Engine.Batch.message)
  in
  let gc0 = Gc.quick_stat () in
  let t0 = clock () in
  let specs =
    Engine.Pool.with_pool ~domains (fun pool ->
        Engine.Batch.stream_seq pool ~chunk:1 ~window:(4 * domains) producer ~f:emit)
  in
  let wall_ns = clock () - t0 in
  let gc1 = Gc.quick_stat () in
  Workload.Specs.close src;
  spans.on <- false;
  {
    wall_ns;
    specs;
    ok = !ok;
    iterations = !iterations;
    blocks = !blocks;
    minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    minor_collections = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
    digest = hex_digest out;
  }

let batch_layers =
  [
    ("specs", [ "specs.read" ]);
    ("gen", [ "gen" ]);
    ("instance", [ "instance" ]);
    ("fast", [ "fast" ]);
    ("schedule", [ "schedule" ]);
    ("bounds", [ "bounds" ]);
    ("format", [ "format" ]);
    ("engine", [ "task" ]);
  ]

(* The engine's own cost for [n] specs: the same Engine.Pool /
   Engine.Batch.stream_seq pipeline at -j 1 with tasks that do nothing.
   The traced pass sees only the [task] span's glue of the engine layer. *)
let engine_loop n =
  let t0 = clock () in
  ignore
    (Engine.Pool.with_pool ~domains:1 (fun pool ->
         Engine.Batch.stream_seq pool ~chunk:1 ~window:4
           (fun i -> if i < n then Some ignore else None)
           ~f:(fun _ _ -> ())));
  seconds (clock () - t0)

(* Untraced, traced, untraced, traced. The tracing overhead compares the
   faster pass of each kind, so neither pays for a cold start alone; the
   spans kept are the last traced pass's. *)
let alternate pass ~wall =
  let u1 = pass ~traced:false in
  let t1 = pass ~traced:true in
  let u2 = pass ~traced:false in
  let t2 = pass ~traced:true in
  ((if wall u1 <= wall u2 then u1 else u2), t2, min (wall t1) (wall t2))

let run_batch path =
  let domains = Engine.Pool.recommended_domain_count () in
  let parallel = batch_pass ~path ~domains ~traced:false in
  let cost = calibrate () in
  let plain, traced, traced_best =
    alternate (batch_pass ~path ~domains:1) ~wall:(fun p -> p.wall_ns)
  in
  let self = self_times cost in
  let a = aggregate self in
  let tracer = tracer_json cost in
  write_spans spans_file self;
  let engine_s = engine_loop plain.specs in
  O
    [
      ("nproc", I (Engine.Pool.recommended_domain_count ()));
      ("specs", I plain.specs);
      ("ok", I plain.ok);
      ("domains", I domains);
      ("wall_j1_s", F (seconds plain.wall_ns));
      ("wall_traced_s", F (seconds traced.wall_ns));
      ("wall_traced_best_s", F (seconds traced_best));
      ("wall_jN_s", F (seconds parallel.wall_ns));
      ("iterations", I plain.iterations);
      ("blocks", I plain.blocks);
      ("minor_words", F plain.minor_words);
      ("minor_collections", I plain.minor_collections);
      ("digest_j1", S plain.digest);
      ("digest_traced", S traced.digest);
      ("digest_jN", S parallel.digest);
      ("engine_loop_s", F engine_s);
      ("tracer", tracer);
      ( "layers",
        layer_json a batch_layers ~extra_s:(fun l -> if l = "engine" then engine_s else 0.0)
      );
    ]

(* ------------------------------------------------------------- serve *)

module Session = Sos.Online.Session

type serve_pass = {
  s_wall_ns : int;
  requests : int;
  queries : int;
  query_blocks : int;
  full : int;
  extended : int;
  cached : int;
  s_digest : string;
}

(* `sosctl serve --checkpoint PATH --shards K` with every other setting at
   its default. *)
let server_config ~shards = { Serve.Server.default with checkpoint = Some "wal.replay"; shards }

(* What Serve.Server does for open / submit / query requests (the three
   kinds the workload sends), with each library call in its own span and
   the reply bytes the server would write. *)
let serve_direct lines ~(cfg : Serve.Server.config) ~traced =
  reset_spans ~on:traced;
  let out = Buffer.create (1 lsl 16) in
  let queries = ref 0 and query_blocks = ref 0 in
  let t0 = clock () in
  let journal =
    Robust.Journal.Sharded.start ~path:(Option.get cfg.checkpoint) ~shards:cfg.shards
      ~sync_every:cfg.sync_every ~header:(Serve.Server.header cfg) ()
  in
  let sessions : (string, Session.t) Hashtbl.t = Hashtbl.create 16 in
  let session tenant =
    match Hashtbl.find_opt sessions tenant with
    | Some s -> s
    | None -> failwith ("no session " ^ tenant)
  in
  Array.iteri
    (fun idx line ->
      span s_request idx @@ fun () ->
      let cmd, canonical =
        span s_protocol idx (fun () ->
            match Serve.Protocol.parse line with
            | Ok cmd -> (cmd, Serve.Protocol.canonical cmd)
            | Error msg -> failwith msg)
      in
      let reply =
        match cmd with
        | Serve.Protocol.Open { tenant; m; scale } ->
            span s_open idx (fun () ->
                Hashtbl.replace sessions tenant
                  (Session.create ~max_jobs:cfg.max_jobs ~max_volume:cfg.max_volume ~m
                     ~scale ()));
            Printf.sprintf "%d ok open tenant=%s m=%d scale=%d" idx tenant m scale
        | Serve.Protocol.Submit { tenant; arrival } -> (
            let s = session tenant in
            match span s_add idx (fun () -> Session.add s arrival) with
            | Ok pos -> Printf.sprintf "%d ok submit tenant=%s job=%d" idx tenant pos
            | Error r -> failwith (Session.reject_message r))
        | Serve.Protocol.Query { tenant; job = None; _ } ->
            let s = session tenant in
            ignore (span s_stats idx (fun () -> Session.stats s));
            let r = span s_solve idx (fun () -> Session.solve s) in
            ignore (span s_stats idx (fun () -> Session.stats s));
            let lb =
              span s_lb idx (fun () ->
                  Sos.Online.lower_bound ~m:(Session.m s) ~scale:(Session.scale s)
                    (Session.arrivals s))
            in
            incr queries;
            query_blocks :=
              !query_blocks + List.length r.Sos.Online.schedule.Sos.Schedule.steps;
            Printf.sprintf "%d ok schedule tenant=%s jobs=%d makespan=%d lb=%d" idx tenant
              (Sos.Instance.n r.Sos.Online.instance)
              r.Sos.Online.makespan lb
        | _ -> failwith ("request kind not replayed: " ^ line)
      in
      span s_journal idx (fun () ->
          Robust.Journal.Sharded.append journal ~index:idx
            ~payload:(Robust.Journal.digest canonical ^ " " ^ reply));
      Buffer.add_string out reply;
      Buffer.add_char out '\n')
    lines;
  Robust.Journal.Sharded.close journal;
  let s_wall_ns = clock () - t0 in
  spans.on <- false;
  let full, extended, cached =
    Hashtbl.fold
      (fun _ s (f, e, c) ->
        let st = Session.stats s in
        (f + st.Session.full_solves, e + st.Session.extended_solves, c + st.Session.cached_hits))
      sessions (0, 0, 0)
  in
  {
    s_wall_ns;
    requests = Array.length lines;
    queries = !queries;
    query_blocks = !query_blocks;
    full;
    extended;
    cached;
    s_digest = hex_digest out;
  }

(* The real server loop over a file-backed channel pair: everything
   `sosctl serve` does per request except the process boundary. *)
let server_pass ~path ~cfg =
  let out_path = "server.out" in
  let t0 = clock () in
  let srv =
    match Serve.Server.create cfg with
    | Ok srv -> srv
    | Error msg -> failwith msg
  in
  In_channel.with_open_text path (fun input ->
      Out_channel.with_open_text out_path (fun output ->
          Engine.Pool.with_pool ~domains:1 (fun pool ->
              Serve.Server.serve srv ~pool ~input ~output ())));
  let summary = Serve.Server.finish srv in
  let wall = clock () - t0 in
  (wall, summary.Serve.Server.exit_code, Digest.to_hex (Digest.file out_path))

let serve_layers =
  [
    ("protocol", [ "protocol" ]);
    ("online", [ "online.open"; "online.add"; "online.solve"; "online.stats"; "online.lb" ]);
    ("journal", [ "journal" ]);
    ("server", [ "request" ]);
  ]

let run_serve path ~shards =
  let cfg = server_config ~shards in
  let lines =
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
    |> Array.of_list
  in
  let cost = calibrate () in
  let plain, traced, traced_best =
    alternate (serve_direct lines ~cfg) ~wall:(fun p -> p.s_wall_ns)
  in
  let self = self_times cost in
  let a = aggregate self in
  let tracer = tracer_json cost in
  write_spans spans_file self;
  let solve_ns = durations s_solve in
  Array.sort compare solve_ns;
  let server_wall, server_code, server_digest =
    server_pass ~path ~cfg
  in
  O
    [
      ("nproc", I (Engine.Pool.recommended_domain_count ()));
      ("requests", I plain.requests);
      ("queries", I plain.queries);
      ("wall_untraced_s", F (seconds plain.s_wall_ns));
      ("wall_traced_s", F (seconds traced.s_wall_ns));
      ("wall_traced_best_s", F (seconds traced_best));
      ("server_wall_s", F (seconds server_wall));
      ("server_exit", I server_code);
      ("solve_p50_s", F (seconds (percentile solve_ns 0.5)));
      ("solve_p99_s", F (seconds (percentile solve_ns 0.99)));
      ("query_blocks", I plain.query_blocks);
      ("solves_full", I plain.full);
      ("solves_extended", I plain.extended);
      ("solves_cached", I plain.cached);
      ("digest_untraced", S plain.s_digest);
      ("digest_traced", S traced.s_digest);
      ("digest_server", S server_digest);
      ("tracer", tracer);
      ("layers", layer_json a serve_layers);
      ("online_add", layer_json a [ ("add", [ "online.add" ]) ]);
    ]

(* -------------------------------------------------------------- main *)

let () =
  let result =
    match Array.to_list Sys.argv with
    | [ _; "batch"; path ] -> run_batch path
    | [ _; "serve"; path; shards ] -> run_serve path ~shards:(int_of_string shards)
    | _ ->
        prerr_endline "usage: tracer batch SPECS | tracer serve REQUESTS SHARDS";
        exit 2
  in
  print_endline (to_json result)
