(** The long-running compile+simulate server: a bounded admission
    queue drained by worker domains, and the Unix-socket / stdio
    transports for `bitspecc serve`.

    A bench request names one cell of the evaluation grid, and the
    server answers it through {!Experiment.run_test}: the compile cache
    plus the process-wide memo of test-input simulations, the same path
    the bench harness takes.  Each cell has one deterministic answer,
    so a repeated request is a lookup.

    - {b Admission / load shedding.}  A request is either admitted to
      the bounded queue or immediately answered [Overloaded] once the
      queue is at its high-water mark; nothing blocks, nothing is
      silently dropped.  Control-plane ops (ping / stats / health /
      shutdown) bypass the queue so the server stays observable under
      overload.
    - {b Deadlines and fuel.}  A request's deadline (an absolute
      timestamp fixed at admission) is checked when a worker takes it
      off the queue: if it has passed, the answer is [Timed_out] and
      nothing is compiled.  A started request runs to completion,
      bounded by fuel: the memoised simulation's instruction count is
      checked against the request's budget.
    - {b Crash isolation.}  Each request is answered exactly once, by
      the worker that runs it.  The worker catches every per-request
      exception and answers with structured diagnostics, then keeps
      serving.  Compiles and simulations are deterministic, so a
      failure is memoised like a success. *)

type config = {
  jobs : int;            (** worker domains *)
  queue_depth : int;     (** admission high-water mark *)
  deadline_ms : int;     (** default per-request deadline; 0 = none *)
  fuel : int;            (** default simulation instruction budget *)
  cache_dir : string option;
      (** attach {!Compile_cache}'s persistent layer here *)
}

val default_config : config
(** 4 workers, depth 64, 30 s deadline, 2×10{^8} fuel, no cache dir. *)

type t

val start : config -> t
(** Spawn the workers.  If [cache_dir] is set, opens (or reopens) the
    persistent cache first — a corrupt store quarantines bad entries
    rather than failing startup. *)

val submit : t -> Service.request -> (Service.response -> unit) -> unit
(** Asynchronous submission.  The callback runs exactly once, on the
    worker that ran the request or on the submitting thread (shed /
    draining / control ops); it must be thread-safe and quick. *)

val submit_wait : t -> Service.request -> Service.response
(** Synchronous submission (blocks the calling thread). *)

val stats : t -> Service.server_stats
(** Counter snapshot plus the full metrics-registry snapshot in
    [st_metrics]. *)

val health : t -> Service.health_report
(** Degradation probe: ok unless draining, shedding more than 10% of
    admissions, or quarantining persistent-cache entries. *)

val stop : t -> unit
(** Graceful shutdown: refuse new work, drain the queue, join the
    workers.  Idempotent.  Waits for each worker's current request. *)

val draining : t -> bool
(** True once shutdown was initiated (via {!stop} or a [Shutdown]
    request). *)

(* --- transports -------------------------------------------------------- *)

val serve_unix :
  t -> socket:string -> ?on_ready:(unit -> unit) -> unit -> unit
(** Bind a Unix-domain listening socket and serve newline-delimited
    JSON until a [Shutdown] request or SIGTERM/SIGINT arrives, then
    drain and return.  Each connection gets a reader thread; responses
    are written as they complete (out of submission order when
    pipelined).  A stale socket file from a dead server is replaced; a
    live one is reported as an error.  [on_ready] runs once the socket
    is accepting. *)

val serve_stdio : t -> unit -> unit
(** Same protocol over stdin/stdout: serve until EOF or [Shutdown],
    then drain and return.  One response line per request line. *)

(* --- client ------------------------------------------------------------ *)

type conn

val connect : socket:string -> conn
(** Connect to a serving socket.  Raises [Unix.Unix_error] on
    failure. *)

val call : conn -> Service.request -> Service.response
(** Send one request and block for its response (matching by id;
    intervening responses to other ids on the same connection are
    discarded — use one connection per in-flight request when driving
    the server concurrently). *)

val close : conn -> unit
