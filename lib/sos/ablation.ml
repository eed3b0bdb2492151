let run_literal_grow_left inst = Fast.run ~variant:`Literal inst

let naive_assign st w ~budget =
  let ms = Window.members st w in
  let mx = match Window.last w with Some j -> j | None -> assert false in
  let req j = (Instance.job (State.instance st) j).Job.req in
  let spent = ref 0 in
  let allocs =
    List.map
      (fun j ->
        let assigned =
          if j = mx then min (budget - !spent) (req j) else req j
        in
        let assigned = max 0 assigned in
        spent := !spent + assigned;
        let consumed = min (min assigned (req j)) (State.s st j) in
        { Schedule.job = j; assigned; consumed })
      ms
  in
  (allocs, w)

let run_naive_fracture inst =
  let size = inst.Instance.m - 1 and budget = inst.Instance.scale in
  Listing1.loop inst
    ~window_of:(fun st w -> Window.compute st w ~size ~budget)
    ~assign:(fun st w -> naive_assign st w ~budget)

let run_no_move inst =
  let size = inst.Instance.m - 1 and budget = inst.Instance.scale in
  let window_of st w =
    let w = Window.grow_left_fixed st w ~size ~budget in
    Window.grow_right st w ~size ~budget
  in
  (* extra:false — the soundness of starting an extra job on the m-th
     processor (single-fracture invariant) rests on MoveWindowRight, which
     this ablation removes. *)
  Listing1.loop inst ~window_of ~assign:(fun st w ->
      let outcome = Assign.compute st w ~budget ~extra:false in
      (outcome.Assign.allocs, outcome.Assign.window))
