(** The process-wide content-addressed compile cache.

    Every evidence-producing loop (the bench harness's 19 sections,
    fault-injection campaigns, differential fuzzing, the compile
    service) repeatedly compiles the same (source, configuration)
    pairs.  This cache keys a compile on content — the MD5 digest of
    the source, {!Driver.config_tag}, the training runs, and the
    profile-input label — and computes each key exactly once per
    process, across domains ({!Bs_exec.Memo} is single-flight).

    With {!set_persistent}, the in-memory layer is backed by a
    {!Disk_cache}: a memory miss consults the disk before compiling,
    and fresh {e successful} compiles are written back atomically, so
    a compile survives the process (and the crash) that performed it.
    Failures are never persisted: the in-memory {!Bs_exec.Memo}
    memoises a failure for the life of the process, and the disk holds
    only compiled programs.

    Cached {!Driver.compiled} values are shared, so callers must treat
    them as read-only; simulation already does (every run builds a
    fresh memory image).

    Callers that must measure real compile time (the bechamel section)
    bypass the cache by calling {!Driver.compile} directly. *)

val source_key : string -> string
(** MD5 digest (hex) of a source string — the content half of a key. *)

(** Where a served compile came from: the in-memory table, the
    persistent disk layer, or a real compiler run. *)
type origin = Memory | Disk | Fresh

val compile :
  ?origin:origin ref ->
  key:string -> (unit -> Driver.compiled) -> Driver.compiled
(** [compile ~key thunk] returns the cached compilation for [key],
    running [thunk] on first request.  Exceptions are memoised and
    rethrown (see {!Bs_exec.Memo}).  When [origin] is given it is set
    to where this particular call was served from. *)

val try_compile :
  ?origin:origin ref ->
  key:string ->
  (unit -> (Driver.compiled, Bs_support.Diag.t list) result) ->
  (Driver.compiled, Bs_support.Diag.t list) result
(** Same, for the total (degrade-mode) entry point used by the fuzz
    oracle.  Only [Ok] results are persisted. *)

val set_persistent : string option -> unit
(** [set_persistent (Some dir)] opens (creating if needed) a
    {!Disk_cache} at [dir] and routes every subsequent miss through
    it; [None] detaches.  Call once at startup, before worker domains
    exist. *)

val persistent : unit -> Disk_cache.t option
(** The attached disk layer, if any. *)

val disk_stats : unit -> Disk_cache.stats option
(** Hit/miss/write/quarantine counters of the disk layer. *)

val hits : unit -> int
(** Compiles served from the in-memory cache since the last [reset]. *)

val misses : unit -> int
(** Compiles that missed the in-memory cache (served from disk or
    actually executed) since the last [reset]. *)

val stats : unit -> int * int
(** [(hits, misses)] with each table's pair snapshotted under its lock
    ({!Bs_exec.Memo.stats}), so reporting code running alongside worker
    domains cannot observe a torn pair.  Use this — not {!hits} +
    {!misses} read separately — wherever rates or section sums are
    derived. *)

val reset : unit -> unit
(** Drop the in-memory tables and zero their counters (tests, long
    campaigns).  The persistent layer is untouched. *)
