(** Seeded zipfian load generator for the compile service.

    The request stream is generated {e up front} from the seed — a
    fixed sequence of (workload × configuration) cells drawn from a
    zipfian popularity distribution — and then issued closed-loop by
    [clients] concurrent threads.  The stream is therefore identical
    for any client count or target transport; only the interleaving
    varies, which is exactly what the canonical-log determinism check
    relies on. *)

type target =
  | In_process of Server.t       (** drive the engine directly *)
  | Connect of string            (** dial a Unix socket per client *)

type cfg = {
  lg_seed : int64;
  lg_requests : int;
  lg_clients : int;
  lg_zipf_s : float;        (** zipf exponent; 1.1 is a good default *)
  lg_deadline_ms : int option;
  lg_fuel : int option;
  lg_crash_every : int;     (** inject [Crash] on every n-th request
                                (1-based stream index); 0 = never *)
}

val default_cfg : cfg
(** seed 42, 200 requests, 4 clients, s = 1.1, no deadline/fuel
    overrides, no chaos. *)

type summary = {
  sm_requests : int;
  sm_ok : int;
  sm_errors : int;
  sm_timeouts : int;
  sm_shed : int;
  sm_wall_s : float;
  sm_rps : float;
  sm_p50_ms : float;     (** server-side latency percentiles *)
  sm_p99_ms : float;
  sm_hit_rate : float;   (** cached compiles among [Done] responses *)
  sm_shed_rate : float;  (** shed among all responses *)
}

val cells : (string * Service.bench_req) list
(** The request population: every registry workload crossed with four
    configuration variants, in deterministic order (label, request). *)

val plan : cfg -> Service.request list
(** The deterministic request stream (ids [1..requests]), before any
    I/O — exposed for tests. *)

val run : cfg -> target -> (Service.request * Service.response) list * summary
(** Issue the stream closed-loop and collect every (request, response)
    pair (in stream order) plus the aggregate summary. *)

(** {2 Server-side view and reconciliation} *)

val server_stats : target -> Service.server_stats option
(** Issue one [Stats] request to the target (id 0, outside the plan's
    id space).  [None] if the server is unreachable or answered with
    anything but a stats reply. *)

type cross_check = {
  cc_client_count : int;   (** non-shed responses the client collected *)
  cc_server_count : int;   (** server latency-histogram count; -1 if absent *)
  cc_client_p50 : float;   (** rank-statistic quantiles of the client's
                               [rs_ms] collection *)
  cc_client_p99 : float;
  cc_server_p50 : float;   (** server histogram estimates *)
  cc_server_p99 : float;
  cc_count_ok : bool;      (** counts agree exactly *)
  cc_p50_ok : bool;        (** within one bucket ratio *)
  cc_p99_ok : bool;
  cc_ok : bool;
}

val cross_check :
  (Service.request * Service.response) list -> Service.server_stats ->
  cross_check
(** Reconcile the server's [serve_request_ms] histogram (from
    [st_metrics]) against the client-side collection of the same
    [rs_ms] values: counts must match exactly, quantile estimates must
    sit in [[exact, max(exact·bucket_ratio, bucket_floor)]].  Only
    sound against a server that has served exactly this run's
    requests. *)

val canonical_log : (Service.request * Service.response) list -> string list
(** {!Service.canonical_line} for each pair, sorted by request id —
    byte-identical across [--jobs] values for the same plan. *)
