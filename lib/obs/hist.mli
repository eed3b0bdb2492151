(** Atomic fixed-bucket histograms — a facade over the {!Metrics}
    registry's histogram support.

    Buckets are strictly increasing upper bounds plus one overflow
    bucket; every bucket count is its own atomic, so recording and
    {!merge_into} are lock-free and commutative. A {e deterministic}
    histogram ({!create}) records algorithmic values — approximation
    ratios, iterations per run, RLE blocks — and snapshots
    byte-identically at any [-j]; a {e runtime} histogram ({!runtime})
    records latencies and occupancies with no reproducibility promise.
    Registered histograms appear in [Obs.Metrics] snapshots, JSON, and
    the OpenMetrics exposition under their registered name. *)

type t = Metrics.hist

val create : ?bounds:float array -> string -> t
(** Register (or look up) a deterministic-class histogram. Default
    bounds: {!log_bounds} over [1e-6 .. 1e6] at 5 buckets/decade. *)

val runtime : ?bounds:float array -> string -> t
(** Register (or look up) a runtime-class histogram. *)

val log_bounds : lo:float -> hi:float -> per_decade:int -> float array
val linear_bounds : lo:float -> hi:float -> step:float -> float array

val observe : t -> float -> unit
(** Record one value (one binary search + one atomic add when recording
    is enabled; a flag load otherwise). *)

val observe_int : t -> int -> unit

val time : t -> (unit -> 'a) -> 'a
(** [time h f] runs [f] and records its wall duration in seconds, also
    when [f] raises; with recording disabled it is just the call. For
    runtime-class histograms ({!runtime}) only: durations are not
    reproducible. *)

val count : t -> int
val max_value : t -> float

val quantile : t -> float -> float
(** Bucket-resolution quantile, clamped to the exact max; see
    {!Metrics.hist_quantile}. *)

val merge_into : into:t -> t -> unit
(** Lock-free merge: add the source's buckets/max/sum into [into]. The
    layouts must match. Commutative and associative. *)
