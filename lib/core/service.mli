(** The compile service's wire protocol: request/response types and
    their newline-delimited JSON codec.

    One JSON object per line in each direction.  Requests carry a
    client-chosen [id]; responses echo it, and a connection may carry
    responses out of submission order (clients that pipeline must
    demultiplex by id).

    The protocol is deliberately workload-addressed: a request names a
    built-in workload and a configuration, and the server compiles and
    simulates it — the shape every campaign client (autotuning sweeps,
    fuzz fleets, drift studies) consumes.  Chaos knobs ([chaos] field)
    let tests and the load generator make a worker crash or stay busy,
    to exercise exception isolation, load shedding and admission
    deadlines. *)

(** Injected worker misbehaviour, a test hook for the server itself. *)
type chaos =
  | Crash
      (** the worker raises {!Injected_crash} before compiling; the
          request fails with BS-SRV-03 and the worker keeps serving *)
  | Hang_ms of int
      (** the worker sleeps this long before compiling, holding its
          slot busy (queued requests wait, and may shed or time out) *)

type bench_req = {
  b_workload : string;             (** a {!Bs_workloads.Registry} name *)
  b_arch : Driver.arch;
  b_heuristic : Bs_interp.Profile.heuristic;
  b_no_expander : bool;
}

type op =
  | Ping
  | Stats
  | Health  (** liveness/degradation probe; answered without queueing *)
  | Shutdown  (** graceful: drain the queue, then exit *)
  | Bench of bench_req

type request = {
  rq_id : int;
  rq_op : op;
  rq_deadline_ms : int option;  (** overrides the server default *)
  rq_fuel : int option;         (** overrides the server default *)
  rq_chaos : chaos option;
}

type metrics_summary = {
  m_checksum : int64;
  m_instrs : int;
  m_cycles : int;
  m_misspecs : int;
  m_energy : float;
  m_epi : float;
}

type server_stats = {
  st_served : int;      (** bench requests answered (any status) *)
  st_ok : int;
  st_errors : int;
  st_timeouts : int;
  st_shed : int;
  st_retries : int;
      (** always 0: every request runs once (kept for the field's
          existing readers) *)
  st_depth : int;       (** current queue depth *)
  st_mem_hits : int;    (** in-memory compile-cache hits *)
  st_mem_misses : int;
  st_disk_hits : int;   (** persistent-layer hits (0 without a cache dir) *)
  st_disk_misses : int;
  st_entries : int;     (** committed entries on disk *)
  st_quarantined : int; (** files in quarantine/ on disk *)
  st_uptime_ms : float;
  st_metrics : Bs_support.Jsonx.t;
      (** full metrics-registry snapshot ({!Bs_obs.Metrics.snapshot_json}
          shape: counters/gauges/volatile/histograms); [Null] when the
          peer predates the field *)
}

type health_report = {
  hr_ok : bool;  (** no degradation reasons *)
  hr_reasons : string list;
      (** machine-matchable degradation causes, e.g. ["draining"],
          ["shed-rate"], ["quarantine"] *)
}

type status =
  | Done of metrics_summary           (** a bench request succeeded *)
  | Pong
  | Stats_reply of server_stats
  | Health_reply of health_report
  | Bye                               (** shutdown acknowledged *)
  | Failed of Bs_support.Diag.t list  (** structured, machine-matchable *)
  | Overloaded of int
      (** shed at admission: queue depth was at the high-water mark
          (the payload); retry later *)
  | Timed_out
      (** the deadline had passed when a worker took the request off
          the queue; it was not compiled or simulated *)

type response = {
  rs_id : int;
  rs_status : status;
  rs_cached : bool;   (** compile served from a cache layer (memory/disk) *)
  rs_ms : float;      (** server-side latency, admission to response *)
}

(** Stable diagnostic codes for service-level failures. *)

val diag_bad_request : string -> Bs_support.Diag.t       (* BS-SRV-01 *)
val diag_unknown_workload : string -> Bs_support.Diag.t  (* BS-SRV-02 *)
val diag_crash : string -> Bs_support.Diag.t              (* BS-SRV-03 *)
val diag_fuel : Bs_support.Diag.t                        (* BS-SRV-04 *)
val diag_trap : Bs_support.Outcome.trap -> Bs_support.Diag.t (* BS-SRV-05 *)
val diag_internal : string -> Bs_support.Diag.t          (* BS-SRV-07 *)

exception Injected_crash
(** Raised by the chaos [Crash] knob. *)

val chaos_of_string : string -> chaos option
(** ["crash"] or ["hang:MS"]. *)

val chaos_to_string : chaos -> string

(* --- codec ------------------------------------------------------------- *)

val request_to_json : request -> Bs_support.Jsonx.t
val request_of_json : Bs_support.Jsonx.t -> (request, string) result
val response_to_json : response -> Bs_support.Jsonx.t
val response_of_json : Bs_support.Jsonx.t -> (response, string) result

val stats_to_json : server_stats -> Bs_support.Jsonx.t
(** Exposed for reporting code that embeds the server view (e.g. the
    loadgen cross-check artifact); [response_to_json] uses it. *)

val request_of_line : string -> (request, string) result
val request_line : request -> string
val response_line : response -> string
(** Line forms: parse/print including the JSON framing (no trailing
    newline on output). *)

val status_name : status -> string
(** ["ok"], ["pong"], ["stats"], ["health"], ["bye"], ["error"],
    ["overloaded"], ["timeout"]. *)

val op_label : op -> string
(** Canonical label, e.g. ["bench:CRC32/bitspec/max/exp"] — injective
    over the op space. *)

val canonical_line : request -> response -> string
(** One deterministic log line for a (request, response) pair: id, op
    label, status, and the checksum or first diagnostic code —
    everything except timing and cache origin, which legitimately vary
    across schedules.  Sorted over ids, these lines form the canonical
    server log that must be byte-identical at any [--jobs]. *)
