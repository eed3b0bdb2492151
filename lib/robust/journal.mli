(** Append-only checkpoint journal for batch runs and the serve WAL.

    A journal records, per completed task, its submission index and the
    exact output payload the run emitted for it, so a killed run can be
    resumed and replay the completed prefix byte-identically instead of
    re-solving it (`sosctl batch --checkpoint PATH --resume`).

    {b File format} (line-oriented text, doc/ROBUSTNESS.md):
    {[
      <header line>                      e.g. "sosj1 seed=7 algo=window specs=<md5>"
      <index> <md5-of-payload> <payload>
      ...
    ]}
    The header binds the journal to one run configuration; {!Sharded.resume}
    refuses a journal whose header differs (resuming under a different
    seed, algorithm, or spec list would silently mix outputs). Resume drops
    any entry whose digest does not match its payload — a process killed
    mid-append leaves at most one torn trailing line, which is simply re-run.
    Payloads must be newline-free (enforced by {!Sharded.append}).

    All reads stream line-by-line: resuming a journal costs O(longest line)
    memory, never O(file). *)

val digest : string -> string
(** MD5 hex of a string (also used by callers to fingerprint the spec list
    into the header). *)

(** Sharded journal for streaming batches (`sosctl batch --stream`).

    The journal is split over [shards] files — entry [index] lands in
    shard [index mod shards], file [PATH.k] (or [PATH] itself when
    [shards = 1], in exactly the format above).
    Every shard carries the same configuration-binding header, suffixed
    with [" shard=k/N"] when [N > 1] so a journal can never be resumed
    under a different shard count.

    Sharding buys two things for million-spec runs: resume compacts and
    scans shards independently (each is 1/N of the data), and appends can
    be batched behind a [sync_every] flush policy per shard — an fsync'd
    line every K entries instead of every entry, trading at most
    [K - 1] re-run tasks per shard on a kill for sequential-write
    throughput.

    Resume never materializes entries: each shard is streamed line-by-line
    into a {e bitset} of completed indices (125 KB per million tasks)
    while being {e compacted} — torn or corrupt lines dropped, the clean
    file atomically renamed into place — and replayed payloads are read
    back on demand through a forward-only cursor per shard. *)
module Sharded : sig
  type t

  val start : path:string -> ?shards:int -> ?sync_every:int -> header:string -> unit -> t
  (** Create a fresh journal: truncates all [shards] (default 1) shard
      files and writes their headers. [sync_every] (default 1 = flush
      every entry) is the per-shard append count between flushes; both are
      clamped up to 1. *)

  val resume :
    path:string ->
    ?shards:int ->
    ?sync_every:int ->
    header:string ->
    unit ->
    (t, string) result
  (** Reopen an interrupted run's journal: verifies every shard's header
      (mismatch → [Error]), compacts each shard in one streaming pass
      (invalid lines dropped, atomic rename), and records the surviving
      indices in the resume bitset. A missing or empty shard file is
      recreated fresh. *)

  val mem : t -> int -> bool
  (** Did the interrupted run complete this index? (Always [false] on a
      {!start}-ed journal; fresh {!append}s do not set it.) *)

  val completed : t -> int
  (** Number of indices recorded by the interrupted run. *)

  val replay : t -> int -> string option
  (** The payload the interrupted run journalled for this index, or [None]
      if {!mem} is false. Must be called in increasing index order (the
      ordered-emission order): each shard is read through a forward
      cursor with one entry of pushback, so in-order entries cost O(1)
      reads. An entry lying {e behind} the cursor (a shard left
      index-unsorted by a prior resume appending re-run gap indices after
      higher ones) is still found, via a full-shard rescan. [None] with
      {!mem} true therefore means the journal lost the entry — callers
      must treat it as a failure, not as silence. *)

  val append : t -> index:int -> payload:string -> unit
  (** Journal one fresh entry into shard [index mod shards], flushing per
      the [sync_every] policy. Raises [Invalid_argument] on newline
      payloads. *)

  val flush : t -> unit
  (** Force out any appends still buffered behind [sync_every]. *)

  val close : t -> unit
  (** Flush and close every shard channel and replay cursor. *)

  val shards : t -> int

  val paths : t -> string array
  (** The shard file paths, in shard order. *)
end
