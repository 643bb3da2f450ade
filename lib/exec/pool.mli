(** Deterministic Domain-based parallel execution.

    [map] fans an array of independent jobs out over a fixed pool of
    worker domains.  Results come back in input order and worker
    exceptions are rethrown in input order, so a parallel map is
    observationally identical to [Array.map] — callers get parallelism
    without giving up reproducibility.  All randomness must be split
    {e before} the fan-out (each job carries its own seed); the pool
    itself introduces no nondeterminism. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the CLI default for
    [--jobs]. *)

val stats : unit -> int * int
(** [(items_run, items_cancelled)] accumulated process-wide across all
    [map] calls: items actually executed vs items abandoned when a
    failed batch ended early.  Mirrored in
    the volatile [pool_items_total] metric, with per-item latency in
    the [pool_item_ms] histogram. *)

val map : jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map ~jobs f a] applies [f] to every element of [a] on up to [jobs]
    domains (the calling domain included) and returns the results in
    input order.  With [jobs <= 1] (or fewer than two elements) it
    degrades to a plain sequential map — the [--jobs 1] debugging path
    runs no domain machinery at all.

    If any job raises, the remaining unclaimed items are {e not}
    started (workers drain cooperatively, finishing only the items
    already in flight) and the exception of the {e lowest-index}
    failing job is rethrown (with its backtrace) after all workers have
    drained.  Because items are claimed in index order, the executed
    items always form a prefix of the input, so the rethrown failure is
    the same in every schedule — failure is as deterministic as
    success. *)

val map_list : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map] over lists, preserving order. *)

val run_all : jobs:int -> (unit -> unit) array -> unit
(** [run_all ~jobs thunks] executes every thunk, in parallel across the
    pool.  Used to prefill memo tables before a sequential
    (deterministically-ordered) reporting pass. *)
