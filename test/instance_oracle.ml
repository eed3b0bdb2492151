(* Reference semantics for the Sos.Instance builder: the list-based
   [Instance.create] and [Sos_gen.generate] that the in-place builder
   replaced, kept verbatim so the suite can check the new builder against
   them. The reference returns the built [jobs] and [original]
   arrays ([Instance.t] is private). *)

open Sos

let create ~m ~scale specs =
  Instance.check_dims ~m ~scale;
  let tagged =
    List.mapi (fun pos (size, req) -> (pos, Job.v ~id:pos ~size ~req)) specs
  in
  let arr = Array.of_list tagged in
  Array.sort (fun (_, a) (_, b) -> Job.compare_req a b) arr;
  let jobs =
    Array.mapi (fun i (_, j) -> Job.v ~id:i ~size:j.Job.size ~req:j.Job.req) arr
  in
  let original = Array.map fst arr in
  (jobs, original)

let generate rng (family : Workload.Sos_gen.family) ~n ~m ~scale =
  let module D = Workload.Distributions in
  let specs =
    List.init n (fun _ ->
        let size = max 1 (D.sample rng family.size) in
        let req = max 1 (D.sample rng family.req) in
        (size, req))
  in
  create ~m ~scale specs
