(* A fixed reference job for measuring how fast the host runs right now.
   It uses no code of this repository, so no change to the repository can
   change its speed; only the host can. perfbench/run.py compiles it with
   plain ocamlopt (outside the dune project, so no project flag reaches
   it) and times it between repetitions of the child.

   hostref.exe ROUNDS prints "ready" at once, then does ROUNDS rounds of
   the kind of work sosctl does (allocation and minor GCs, hashing,
   sorting, formatting into a buffer) and prints a checksum. With ROUNDS
   = 0 it only starts and prints "ready": a spawn of a program that does
   nothing. *)

let round st =
  let h = Hashtbl.create 1024 in
  for i = 0 to 20_000 do
    Hashtbl.replace h (Random.State.int st 100_000) (Printf.sprintf "%d:%d" i (i * 7))
  done;
  let l = List.sort compare (List.init 20_000 (fun _ -> Random.State.float st 1.0)) in
  let b = Buffer.create 4096 in
  Hashtbl.iter (fun k v -> if k land 63 = 0 then (Buffer.add_string b v; Buffer.add_char b '\n')) h;
  Buffer.length b + List.length l

let () =
  let rounds = int_of_string Sys.argv.(1) in
  print_endline "ready";
  let st = Random.State.make [| 42 |] in
  let sum = ref 0 in
  for _ = 1 to rounds do
    sum := !sum + round st
  done;
  if rounds > 0 then Printf.printf "%d\n" !sum
