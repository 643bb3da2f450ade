(** A thread-safe, single-flight memo table.

    [find_or_add] computes each key at most once per process, whatever
    the number of domains asking: concurrent requests for a key already
    being computed block until the computation lands, then share its
    result.

    Memoised computations are deterministic, so a failure is memoised
    like a value the first time it happens: later requests for the key
    rethrow it without running the thunk again.

    The table keeps hit/miss counters so callers (the bench harness,
    the compile cache) can report cache effectiveness. *)

type ('k, 'v) t

val create : ?cap:int -> unit -> ('k, 'v) t
(** [create ~cap ()] returns an empty table.  When the number of
    memoised entries reaches [cap] (default: unbounded) the table is
    flushed wholesale before admitting the next entry — crude, but it
    bounds memory without introducing eviction-order nondeterminism in
    the values returned (a re-computation is identical by
    assumption). *)

val find_or_add : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
(** [find_or_add t k f] returns the memoised value for [k], computing
    it with [f] (outside the table lock) on first request.  Rethrows
    the memoised exception if [f] failed. *)

val mem : ('k, 'v) t -> 'k -> bool
(** [mem t k] is true when [k] is memoised (even as a failure). *)

val clear : ('k, 'v) t -> unit
(** Drop all entries and reset the hit/miss counters. *)

val hits : ('k, 'v) t -> int
(** Requests served from the table. *)

val misses : ('k, 'v) t -> int
(** Requests that ran the computation. *)

val coalesced : ('k, 'v) t -> int
(** Requests that found their key in flight and waited for another
    requester's computation instead of running their own (each waiting
    requester counted once, however many times it is woken).  Also
    accumulated process-wide into the volatile
    [memo_coalesced_total] metric. *)

val stats : ('k, 'v) t -> int * int
(** [(hits, misses)] snapshotted atomically under the table lock.
    Reading {!hits} and {!misses} separately can observe a torn pair
    when other domains are mutating the table between the two loads;
    reporting code (hit rates, section sums) must use this instead. *)

val length : ('k, 'v) t -> int
