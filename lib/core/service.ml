open Bs_support

(* Wire protocol for the compile service.  See the interface; this file
   is the codec plus the canonical-log rendering.  Everything here is
   pure — the server engine lives in Server. *)

type chaos = Crash | Hang_ms of int

type bench_req = {
  b_workload : string;
  b_arch : Driver.arch;
  b_heuristic : Bs_interp.Profile.heuristic;
  b_no_expander : bool;
}

type op = Ping | Stats | Health | Shutdown | Bench of bench_req

type request = {
  rq_id : int;
  rq_op : op;
  rq_deadline_ms : int option;
  rq_fuel : int option;
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
  st_served : int;
  st_ok : int;
  st_errors : int;
  st_timeouts : int;
  st_shed : int;
  st_retries : int;
  st_depth : int;
  st_mem_hits : int;
  st_mem_misses : int;
  st_disk_hits : int;
  st_disk_misses : int;
  st_entries : int;
  st_quarantined : int;
  st_uptime_ms : float;
  st_metrics : Jsonx.t;
      (* full Metrics.snapshot_json payload; Null when absent *)
}

type health_report = {
  hr_ok : bool;
  hr_reasons : string list;  (* why degraded; empty iff hr_ok *)
}

type status =
  | Done of metrics_summary
  | Pong
  | Stats_reply of server_stats
  | Health_reply of health_report
  | Bye
  | Failed of Diag.t list
  | Overloaded of int
  | Timed_out

type response = {
  rs_id : int;
  rs_status : status;
  rs_cached : bool;
  rs_ms : float;
}

(* --- diagnostics ------------------------------------------------------- *)

let diag_bad_request msg =
  Diag.error ~code:"BS-SRV-01" ~phase:Diag.Other ("bad request: " ^ msg)

let diag_unknown_workload name =
  Diag.error ~code:"BS-SRV-02" ~phase:Diag.Other ("unknown workload " ^ name)

let diag_crash msg =
  Diag.error ~code:"BS-SRV-03" ~phase:Diag.Other ("worker crashed: " ^ msg)

let diag_fuel =
  Diag.error ~code:"BS-SRV-04" ~phase:Diag.Sim
    "simulation exhausted its fuel budget"

let diag_trap trap =
  Diag.error ~code:"BS-SRV-05" ~phase:Diag.Sim
    ("simulation trapped: " ^ Outcome.trap_message trap)

let diag_internal msg =
  Diag.error ~code:"BS-SRV-07" ~phase:Diag.Other ("internal: " ^ msg)

exception Injected_crash

(* --- small enums ------------------------------------------------------- *)

let arch_names =
  [ ("baseline", Driver.Baseline); ("bitspec", Driver.Bitspec_arch);
    ("thumb", Driver.Thumb) ]

let heuristic_names =
  [ ("max", Bs_interp.Profile.Hmax); ("avg", Bs_interp.Profile.Havg);
    ("min", Bs_interp.Profile.Hmin) ]

let name_of assoc v =
  fst (List.find (fun (_, v') -> v' = v) assoc)

let of_name assoc n = List.assoc_opt n assoc

let chaos_of_string s =
  match String.split_on_char ':' s with
  | [ "crash" ] -> Some Crash
  | [ "hang"; ms ] -> Option.map (fun ms -> Hang_ms ms) (int_of_string_opt ms)
  | _ -> None

let chaos_to_string = function
  | Crash -> "crash"
  | Hang_ms ms -> Printf.sprintf "hang:%d" ms

let status_name = function
  | Done _ -> "ok"
  | Pong -> "pong"
  | Stats_reply _ -> "stats"
  | Health_reply _ -> "health"
  | Bye -> "bye"
  | Failed _ -> "error"
  | Overloaded _ -> "overloaded"
  | Timed_out -> "timeout"

(* --- encoding ---------------------------------------------------------- *)

open Jsonx

let opt_field k f = function None -> [] | Some v -> [ (k, f v) ]

let request_to_json (r : request) : Jsonx.t =
  let op_fields =
    match r.rq_op with
    | Ping -> [ ("op", Str "ping") ]
    | Stats -> [ ("op", Str "stats") ]
    | Health -> [ ("op", Str "health") ]
    | Shutdown -> [ ("op", Str "shutdown") ]
    | Bench b ->
        [ ("op", Str "bench");
          ("workload", Str b.b_workload);
          ("arch", Str (name_of arch_names b.b_arch));
          ("heuristic", Str (name_of heuristic_names b.b_heuristic)) ]
        @ (if b.b_no_expander then [ ("no_expander", Bool true) ] else [])
  in
  Obj
    ((("id", int r.rq_id) :: op_fields)
    @ opt_field "deadline_ms" int r.rq_deadline_ms
    @ opt_field "fuel" int r.rq_fuel
    @ opt_field "chaos" (fun c -> Str (chaos_to_string c)) r.rq_chaos)

let metrics_to_json (m : metrics_summary) : Jsonx.t =
  Obj
    [ ("checksum", Str (Int64.to_string m.m_checksum));
      ("instrs", int m.m_instrs);
      ("cycles", int m.m_cycles);
      ("misspecs", int m.m_misspecs);
      ("energy", Num m.m_energy);
      ("epi", Num m.m_epi) ]

let diag_to_json (d : Diag.t) : Jsonx.t =
  Obj
    ([ ("code", Str d.Diag.code);
       ("severity", Str (Diag.severity_name d.Diag.severity));
       ("phase", Str (Diag.phase_name d.Diag.phase)) ]
    @ opt_field "func" (fun f -> Str f) d.Diag.func
    @ opt_field "line" int d.Diag.line
    @ [ ("message", Str d.Diag.message) ])

let stats_to_json (s : server_stats) : Jsonx.t =
  Obj
    [ ("served", int s.st_served);
      ("ok", int s.st_ok);
      ("errors", int s.st_errors);
      ("timeouts", int s.st_timeouts);
      ("shed", int s.st_shed);
      ("retries", int s.st_retries);
      ("queue_depth", int s.st_depth);
      ("cache_mem_hits", int s.st_mem_hits);
      ("cache_mem_misses", int s.st_mem_misses);
      ("cache_disk_hits", int s.st_disk_hits);
      ("cache_disk_misses", int s.st_disk_misses);
      ("cache_entries", int s.st_entries);
      ("cache_quarantined", int s.st_quarantined);
      ("uptime_ms", Num s.st_uptime_ms);
      ("metrics", s.st_metrics) ]

let response_to_json (r : response) : Jsonx.t =
  let status_fields =
    match r.rs_status with
    | Done m -> [ ("metrics", metrics_to_json m) ]
    | Pong | Bye -> []
    | Stats_reply s -> [ ("stats", stats_to_json s) ]
    | Health_reply h ->
        [ ("ok", Bool h.hr_ok);
          ("reasons", Arr (List.map (fun r -> Str r) h.hr_reasons)) ]
    | Failed ds -> [ ("diags", Arr (List.map diag_to_json ds)) ]
    | Overloaded depth -> [ ("queue_depth", int depth) ]
    | Timed_out -> []
  in
  Obj
    ([ ("id", int r.rs_id); ("status", Str (status_name r.rs_status)) ]
    @ status_fields
    @ [ ("cached", Bool r.rs_cached);
        ("ms", Num r.rs_ms) ])

(* --- decoding ---------------------------------------------------------- *)

let ( let* ) r f = Result.bind r f

let require what = function
  | Some v -> Ok v
  | None -> Error ("missing or ill-typed " ^ what)

let request_of_json (j : Jsonx.t) : (request, string) result =
  let* id = require "id" (mem_int "id" j) in
  let* opname = require "op" (mem_string "op" j) in
  let* chaos =
    match mem_string "chaos" j with
    | None -> Ok None
    | Some s -> (
        match chaos_of_string s with
        | Some c -> Ok (Some c)
        | None -> Error ("bad chaos spec " ^ s))
  in
  let* op =
    match opname with
    | "ping" -> Ok Ping
    | "stats" -> Ok Stats
    | "health" -> Ok Health
    | "shutdown" -> Ok Shutdown
    | "bench" ->
        let* w = require "workload" (mem_string "workload" j) in
        let* arch =
          match mem_string "arch" j with
          | None -> Ok Driver.Bitspec_arch
          | Some a -> require ("arch " ^ a) (of_name arch_names a)
        in
        let* heuristic =
          match mem_string "heuristic" j with
          | None -> Ok Bs_interp.Profile.Hmax
          | Some h -> require ("heuristic " ^ h) (of_name heuristic_names h)
        in
        let no_expander =
          Option.value ~default:false (mem_bool "no_expander" j)
        in
        Ok
          (Bench
             { b_workload = w; b_arch = arch; b_heuristic = heuristic;
               b_no_expander = no_expander })
    | other -> Error ("unknown op " ^ other)
  in
  Ok
    { rq_id = id; rq_op = op;
      rq_deadline_ms = mem_int "deadline_ms" j;
      rq_fuel = mem_int "fuel" j;
      rq_chaos = chaos }

let severity_of_name = function
  | "error" -> Diag.Error
  | "warning" -> Diag.Warning
  | _ -> Diag.Info

let diag_of_json (j : Jsonx.t) : Diag.t =
  let phase =
    (* service-side diags only ever use these two; anything else shown
       to a client keeps its name inside the message *)
    match mem_string "phase" j with
    | Some "sim" -> Diag.Sim
    | _ -> Diag.Other
  in
  Diag.make
    ~severity:
      (severity_of_name (Option.value ~default:"error" (mem_string "severity" j)))
    ?func:(mem_string "func" j)
    ?line:(mem_int "line" j)
    ~code:(Option.value ~default:"BS-SRV-07" (mem_string "code" j))
    ~phase
    (Option.value ~default:"" (mem_string "message" j))

let metrics_of_json (j : Jsonx.t) : (metrics_summary, string) result =
  let* checksum_s = require "checksum" (mem_string "checksum" j) in
  let* checksum =
    match Int64.of_string_opt checksum_s with
    | Some c -> Ok c
    | None -> Error "bad checksum"
  in
  let* instrs = require "instrs" (mem_int "instrs" j) in
  let* cycles = require "cycles" (mem_int "cycles" j) in
  let* misspecs = require "misspecs" (mem_int "misspecs" j) in
  let* energy = require "energy" (mem_float "energy" j) in
  let* epi = require "epi" (mem_float "epi" j) in
  Ok
    { m_checksum = checksum; m_instrs = instrs; m_cycles = cycles;
      m_misspecs = misspecs; m_energy = energy; m_epi = epi }

let stats_of_json (j : Jsonx.t) : server_stats =
  let geti k = Option.value ~default:0 (mem_int k j) in
  { st_served = geti "served"; st_ok = geti "ok"; st_errors = geti "errors";
    st_timeouts = geti "timeouts"; st_shed = geti "shed";
    st_retries = geti "retries";
    st_depth = geti "queue_depth";
    st_mem_hits = geti "cache_mem_hits";
    st_mem_misses = geti "cache_mem_misses";
    st_disk_hits = geti "cache_disk_hits";
    st_disk_misses = geti "cache_disk_misses";
    st_entries = geti "cache_entries";
    st_quarantined = geti "cache_quarantined";
    st_uptime_ms = Option.value ~default:0.0 (mem_float "uptime_ms" j);
    st_metrics = Option.value ~default:Null (member "metrics" j) }

let response_of_json (j : Jsonx.t) : (response, string) result =
  let* id = require "id" (mem_int "id" j) in
  let* status_s = require "status" (mem_string "status" j) in
  let* status =
    match status_s with
    | "pong" -> Ok Pong
    | "bye" -> Ok Bye
    | "timeout" -> Ok Timed_out
    | "overloaded" ->
        Ok (Overloaded (Option.value ~default:0 (mem_int "queue_depth" j)))
    | "stats" ->
        let* sj = require "stats" (member "stats" j) in
        Ok (Stats_reply (stats_of_json sj))
    | "health" ->
        let* ok = require "ok" (mem_bool "ok" j) in
        let reasons =
          match Option.bind (member "reasons" j) get_list with
          | Some rs -> List.filter_map get_string rs
          | None -> []
        in
        Ok (Health_reply { hr_ok = ok; hr_reasons = reasons })
    | "error" ->
        let diags =
          match Option.bind (member "diags" j) get_list with
          | Some ds -> List.map diag_of_json ds
          | None -> [ diag_internal "error response without diags" ]
        in
        Ok (Failed diags)
    | "ok" ->
        let* mj = require "metrics" (member "metrics" j) in
        let* m = metrics_of_json mj in
        Ok (Done m)
    | other -> Error ("unknown status " ^ other)
  in
  Ok
    { rs_id = id; rs_status = status;
      rs_cached = Option.value ~default:false (mem_bool "cached" j);
      rs_ms = Option.value ~default:0.0 (mem_float "ms" j) }

let request_of_line line =
  match Jsonx.parse line with
  | Error e -> Error e
  | Ok j -> request_of_json j

let request_line r = Jsonx.to_string (request_to_json r)
let response_line r = Jsonx.to_string (response_to_json r)

(* --- canonical log ----------------------------------------------------- *)

let op_label = function
  | Ping -> "ping"
  | Stats -> "stats"
  | Health -> "health"
  | Shutdown -> "shutdown"
  | Bench b ->
      Printf.sprintf "bench:%s/%s/%s/%s" b.b_workload
        (name_of arch_names b.b_arch)
        (name_of heuristic_names b.b_heuristic)
        (if b.b_no_expander then "noexp" else "exp")

let canonical_line (rq : request) (rs : response) =
  let tail =
    match rs.rs_status with
    | Done m -> Printf.sprintf " checksum=%Ld" m.m_checksum
    | Failed (d :: _) -> " diag=" ^ d.Diag.code
    | Failed [] -> ""
    | Overloaded _ | Timed_out | Pong | Bye | Stats_reply _
    | Health_reply _ -> ""
  in
  Printf.sprintf "id=%d op=%s status=%s%s" rq.rq_id (op_label rq.rq_op)
    (status_name rs.rs_status) tail
