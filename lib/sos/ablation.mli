(** Ablation variants of the algorithm, for the A1 experiment. Each switches
    off one design choice that the paper's analysis relies on:

    - {!run_literal_grow_left} — the printed Listing 2 GrowWindowLeft
      (stalls behind a surviving max; see DESIGN.md finding 1);
    - {!run_naive_fracture} — drops the case-1 "un-fracture" swap of
      Listing 1 and always hands the leftover to [max W]. Footnote 1 of the
      paper warns that up to m−1 fractured jobs can then coexist, each
      pinning a processor while consuming almost no resource;
    - {!run_no_move} — drops MoveWindowRight, so windows stick to the left
      border and never slide toward resource-hungry jobs.

    The last two run through Listing 1's own step loop ({!Listing1.loop})
    with one argument swapped. *)

val run_literal_grow_left : Instance.t -> Schedule.t
(** Alias for [Fast.run ~variant:`Literal]. *)

val run_naive_fracture : Instance.t -> Schedule.t
(** Window computation as in Listing 1, but the per-step assignment is the
    naive rule: every window job except [max W] is assigned its full
    requirement (consuming [min(r_j, s_j)]), and [max W] receives the
    leftover. No fracture bookkeeping; valid but potentially wasteful. *)

val run_no_move : Instance.t -> Schedule.t
(** Listing 1 with MoveWindowRight disabled. *)
