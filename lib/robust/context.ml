type t = {
  index : int;
  attempt : int;
  cancel : Cancel.t;
  mutable hits : (string, int) Hashtbl.t option;
}

let key : t option Tls.key = Tls.new_key (fun () -> None)

(* Process-wide count of live scopes: lets [poll]/[current] short-circuit
   to a single atomic load when no batch is running anywhere. *)
let active = Atomic.make 0

let make ~index ~attempt ~cancel = { index; attempt; cancel; hits = None }

let hits ctx =
  match ctx.hits with
  | Some h -> h
  | None ->
      let h = Hashtbl.create 4 in
      ctx.hits <- Some h;
      h

let with_ctx ctx f =
  let prev = Tls.get key in
  Tls.set key (Some ctx);
  Atomic.incr active;
  Fun.protect
    ~finally:(fun () ->
      Atomic.decr active;
      Tls.set key prev)
    f

let current () = if Atomic.get active = 0 then None else Tls.get key

let index () = match current () with Some c -> c.index | None -> -1
let attempt () = match current () with Some c -> c.attempt | None -> 0

let poll () =
  if Atomic.get active > 0 then
    match Tls.get key with None -> () | Some c -> Cancel.check c.cancel
