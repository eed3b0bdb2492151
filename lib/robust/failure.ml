type invalid =
  | Nonpositive_req of { job : int; req : int }
  | Nonpositive_size of { job : int; size : int }
  | Too_few_processors of { m : int; need : int }
  | Non_unit_size of { job : int; size : int }
  | Bad_scale of int
  | Not_finite of { job : int; value : float }
  | Overflow of string
  | Malformed of string

type t =
  | Invalid_instance of invalid
  | Task_exn of exn * Printexc.raw_backtrace
  | Deadline_exceeded of float
  | Cancelled
  | Pool_crashed of string

exception Invalid of invalid
exception Deadline of float
exception Cancel_requested
exception Pool_down of string
exception Internal of string

let internal_error fmt = Printf.ksprintf (fun s -> raise (Internal s)) fmt

let invalid_to_string = function
  | Nonpositive_req { job; req } ->
      Printf.sprintf "job %d: resource requirement must be >= 1 unit (got %d)" job req
  | Nonpositive_size { job; size } ->
      Printf.sprintf "job %d: processing time must be >= 1 (got %d)" job size
  | Too_few_processors { m; need } ->
      Printf.sprintf "need m >= %d processors%s (got m = %d)" need
        (if need >= 3 then " for the window algorithm (Theorem 3.3)" else "")
        m
  | Non_unit_size { job; size } ->
      Printf.sprintf "job %d: processing time must be 1 for a unit-size algorithm (got %d)" job
        size
  | Bad_scale scale -> Printf.sprintf "resource scale must be >= 1 (got %d)" scale
  | Not_finite { job; value } ->
      Printf.sprintf "job %d: resource share must be finite (got %h)" job value
  | Overflow what -> Printf.sprintf "lower-bound overflow: %s" what
  | Malformed what -> what

let of_exn e bt =
  match e with
  | Invalid reason -> Invalid_instance reason
  | Deadline timeout -> Deadline_exceeded timeout
  | Cancel_requested -> Cancelled
  | Pool_down what -> Pool_crashed what
  | e -> Task_exn (e, bt)

let transient = function
  | Task_exn _ | Deadline_exceeded _ -> true
  | Invalid_instance _ | Cancelled | Pool_crashed _ -> false

let class_name = function
  | Invalid_instance _ -> "invalid-instance"
  | Task_exn _ -> "task-exn"
  | Deadline_exceeded _ -> "deadline"
  | Cancelled -> "cancelled"
  | Pool_crashed _ -> "pool-crashed"

let message = function
  | Invalid_instance reason -> invalid_to_string reason
  | Task_exn (e, _) -> Printexc.to_string e
  | Deadline_exceeded timeout -> Printf.sprintf "task exceeded its %gs deadline" timeout
  | Cancelled -> "cancelled before completion"
  | Pool_crashed what -> what

let to_string t = class_name t ^ ": " ^ message t

let backtrace_string = function
  | Task_exn (_, bt) -> Printexc.raw_backtrace_to_string bt
  | _ -> ""

(* Registered so that a [Invalid]/[Deadline] escaping to a generic
   [Printexc.to_string] consumer still prints a real message rather than a
   constructor dump. *)
let () =
  Printexc.register_printer (function
    | Invalid reason -> Some ("invalid instance: " ^ invalid_to_string reason)
    | Deadline timeout -> Some (Printf.sprintf "deadline exceeded (%gs)" timeout)
    | Cancel_requested -> Some "cancelled"
    | Pool_down what -> Some ("pool crashed: " ^ what)
    | Internal what -> Some ("internal invariant violated: " ^ what)
    | _ -> None)
