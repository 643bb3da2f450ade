open Bs_support
open Bs_workloads

(* The compile service engine.  One mutex [lock] guards the queue, the
   worker list and the counters.  Every request is answered exactly once:
   by the submitting thread (control ops, shed, draining) or by the one
   worker that took it off the queue.  Respond callbacks (which may write
   to sockets) are always invoked OUTSIDE [lock]. *)

type config = {
  jobs : int;
  queue_depth : int;
  deadline_ms : int;
  fuel : int;
  cache_dir : string option;
}

let default_config =
  { jobs = 4; queue_depth = 64; deadline_ms = 30_000; fuel = 200_000_000;
    cache_dir = None }

type slot = {
  s_req : Service.request;
  s_cb : Service.response -> unit;
  s_enq_ns : int64;
  s_deadline_ns : int64;  (* absolute; Int64.max_int = none *)
}

type t = {
  cfg : config;
  lock : Mutex.t;
  cond : Condition.t;
  queue : slot Queue.t;
  mutable stopping : bool;
  mutable workers : unit Domain.t list;
  started_ns : int64;
  (* counters, under [lock] *)
  mutable served : int;
  mutable ok : int;
  mutable errors : int;
  mutable timeouts : int;
  mutable shed : int;
}

let now_ns () = Int64.of_float (Unix.gettimeofday () *. 1e9)
let ms_of_ns ns = Int64.to_float ns /. 1e6

(* --- metrics ------------------------------------------------------------ *)

(* All serve instruments are registered at module-init time so the
   registry contents — and hence the snapshot shape — do not depend on
   which code paths happened to fire.  Everything here is deterministic
   for a scripted request mix: outcome counts (chaos is part of the
   request), accepted/shed, and the depth/in-flight gauges (0 at
   quiescence).  Latency histograms are inherently run-dependent and
   live in the snapshot's histogram section. *)
module M = Bs_obs.Metrics

let m_req_ok = M.counter "serve_requests_total" ~labels:[ ("outcome", "ok") ]

let m_req_error =
  M.counter "serve_requests_total" ~labels:[ ("outcome", "error") ]

let m_req_timeout =
  M.counter "serve_requests_total" ~labels:[ ("outcome", "timeout") ]

let m_req_shed =
  M.counter "serve_requests_total" ~labels:[ ("outcome", "shed") ]

let m_accepted = M.counter "serve_accepted_total"
let m_inflight = M.gauge "serve_inflight"
let m_queue_depth = M.gauge "serve_queue_depth"
let m_queue_wait = M.histogram "serve_queue_wait_ms"
let m_latency = M.histogram "serve_request_ms"

let m_latency_origin =
  List.map
    (fun (o, label) ->
      (o, M.histogram "serve_request_ms" ~labels:[ ("origin", label) ]))
    [ (Compile_cache.Memory, "memory"); (Compile_cache.Disk, "disk");
      (Compile_cache.Fresh, "fresh") ]

let flow_name = "serve:req"

(* --- responding (exactly once per request) ----------------------------- *)

(* Must be called WITHOUT [t.lock] held.  [origin] is where the
   request's compile came from; [None] when it never reached the
   compiler.

   Outcome counters and the latency histograms cover bench requests
   only (control ops are answered inline and carry no workload), and
   shed responses are excluded from the latency histograms — matching
   the client side, where Loadgen's percentiles skip Overloaded.  The
   observed sample is [rs_ms] itself, the exact value the client will
   read back off the wire, so the server histogram describes the same
   multiset of numbers the client measures.  The per-origin histograms
   see only requests that compiled. *)
let respond ?origin t slot status =
  Mutex.lock t.lock;
  t.served <- t.served + 1;
  (match status with
  | Service.Done _ -> t.ok <- t.ok + 1
  | Service.Failed _ -> t.errors <- t.errors + 1
  | Service.Timed_out -> t.timeouts <- t.timeouts + 1
  | Service.Overloaded _ | Service.Pong | Service.Bye
  | Service.Stats_reply _ | Service.Health_reply _ -> ());
  Mutex.unlock t.lock;
  let resp =
    { Service.rs_id = slot.s_req.Service.rq_id;
      rs_status = status;
      rs_cached =
        (match origin with
        | Some (Compile_cache.Memory | Compile_cache.Disk) -> true
        | Some Compile_cache.Fresh | None -> false);
      rs_ms = ms_of_ns (Int64.sub (now_ns ()) slot.s_enq_ns) }
  in
  let observe_latency () =
    M.observe m_latency resp.Service.rs_ms;
    Option.iter
      (fun o -> M.observe (List.assoc o m_latency_origin) resp.Service.rs_ms)
      origin
  in
  (match status with
  | Service.Done _ ->
      M.inc m_req_ok;
      observe_latency ()
  | Service.Failed _ ->
      M.inc m_req_error;
      observe_latency ()
  | Service.Timed_out ->
      M.inc m_req_timeout;
      observe_latency ()
  | Service.Overloaded _ -> M.inc m_req_shed
  | Service.Pong | Service.Bye | Service.Stats_reply _
  | Service.Health_reply _ -> ());
  (match status with
  | Service.Done _ | Service.Failed _ | Service.Timed_out
  | Service.Overloaded _ ->
      Bs_obs.Trace.flow_end ~id:slot.s_req.Service.rq_id
        ~args:[ ("status", Service.status_name status) ]
        flow_name
  | _ -> ());
  slot.s_cb resp

(* --- the bench work itself --------------------------------------------- *)

(* One bench request: chaos, then the experiment pipeline's memoised
   compile + simulate.  Returns the reply and where the compile came
   from ([None] when the request never reached the compiler).  The
   simulation runs once per process under [Driver.run_machine]'s default
   fuel; a request's own budget is then a check against the run's
   instruction count, since a run of I instructions finishes under fuel
   F exactly when I <= F. *)
let run_bench t (rq : Service.request) (b : Service.bench_req) =
  (match rq.Service.rq_chaos with
  | Some Service.Crash -> raise Service.Injected_crash
  | Some (Service.Hang_ms ms) -> Unix.sleepf (float_of_int ms /. 1000.0)
  | None -> ());
  match Registry.find b.Service.b_workload with
  | exception Invalid_argument _ ->
      ( Service.Failed [ Service.diag_unknown_workload b.Service.b_workload ],
        None )
  | w ->
      let origin = ref Compile_cache.Fresh in
      let config =
        Driver.config_of ~arch:b.Service.b_arch
          ~heuristic:b.Service.b_heuristic
          ~no_expander:b.Service.b_no_expander
      in
      let _, r = Experiment.run_test ~origin config w in
      let fuel = Option.value rq.Service.rq_fuel ~default:t.cfg.fuel in
      let status =
        match r.Bs_sim.Machine.outcome with
        | Outcome.Finished
          when r.Bs_sim.Machine.ctr.Bs_sim.Counters.instrs <= fuel ->
            let m = Experiment.metrics_of_run r in
            Service.Done
              { Service.m_checksum = m.Experiment.checksum;
                m_instrs = m.Experiment.instrs;
                m_cycles = m.Experiment.cycles;
                m_misspecs = m.Experiment.misspecs;
                m_energy = m.Experiment.total_energy;
                m_epi = m.Experiment.epi }
        | Outcome.Finished | Outcome.Out_of_fuel ->
            Service.Failed [ Service.diag_fuel ]
        | Outcome.Trapped k -> Service.Failed [ Service.diag_trap k ]
        | Outcome.Livelock ->
            Service.Failed [ Service.diag_internal "simulation livelocked" ]
      in
      (status, Some !origin)

(* Run one dequeued request and answer it.  Its deadline is checked
   here, once: a request still queued when its deadline passes is
   answered [Timed_out] without being compiled; a started request runs
   to completion.  Nothing a request raises escapes the worker. *)
let run_slot t slot =
  let status, origin =
    match slot.s_req.Service.rq_op with
    | Service.Bench _ when Int64.compare (now_ns ()) slot.s_deadline_ns > 0 ->
        (Service.Timed_out, None)
    | Service.Bench b -> (
        let rid = string_of_int slot.s_req.Service.rq_id in
        try
          Bs_obs.Trace.with_context [ ("rid", rid) ] (fun () ->
              run_bench t slot.s_req b)
        with
        | Service.Injected_crash ->
            ( Service.Failed [ Service.diag_crash "injected worker crash" ],
              None )
        | e ->
            ( Service.Failed [ Service.diag_internal (Printexc.to_string e) ],
              None ))
    | Service.Ping | Service.Stats | Service.Health | Service.Shutdown ->
        (* control ops never reach the queue *)
        (Service.Pong, None)
  in
  respond ?origin t slot status

(* --- workers ----------------------------------------------------------- *)

(* Block for the next slot; [None] once stopping and the queue is empty. *)
let next_slot t worker =
  Mutex.lock t.lock;
  while Queue.is_empty t.queue && not t.stopping do
    Condition.wait t.cond t.lock
  done;
  match Queue.take_opt t.queue with
  | None ->
      Mutex.unlock t.lock;
      None
  | Some slot ->
      let depth = Queue.length t.queue in
      Mutex.unlock t.lock;
      M.set_gauge m_queue_depth (float_of_int depth);
      M.observe m_queue_wait (ms_of_ns (Int64.sub (now_ns ()) slot.s_enq_ns));
      Bs_obs.Trace.flow_step ~id:slot.s_req.Service.rq_id
        ~args:[ ("worker", string_of_int worker) ]
        flow_name;
      Some slot

let rec worker_loop t worker =
  match next_slot t worker with
  | None -> ()
  | Some slot ->
      M.add_gauge m_inflight 1.0;
      run_slot t slot;
      M.add_gauge m_inflight (-1.0);
      worker_loop t worker

(* --- lifecycle --------------------------------------------------------- *)

let start cfg =
  if cfg.jobs < 1 then invalid_arg "Server.start: jobs < 1";
  if cfg.queue_depth < 1 then invalid_arg "Server.start: queue_depth < 1";
  Compile_cache.set_persistent cfg.cache_dir;
  let t =
    { cfg; lock = Mutex.create (); cond = Condition.create ();
      queue = Queue.create (); stopping = false; workers = [];
      started_ns = now_ns (); served = 0; ok = 0; errors = 0; timeouts = 0;
      shed = 0 }
  in
  t.workers <-
    List.init cfg.jobs (fun i -> Domain.spawn (fun () -> worker_loop t i));
  t

let draining t =
  Mutex.lock t.lock;
  let s = t.stopping in
  Mutex.unlock t.lock;
  s

let stats t : Service.server_stats =
  let dc = Compile_cache.persistent () in
  let ds = Compile_cache.disk_stats () in
  (* snapshot the registry before taking [t.lock]: snapshot_json takes
     the registry and histogram locks, never t.lock, so ordering is
     one-way *)
  let metrics = M.snapshot_json () in
  let mem_hits, mem_misses = Compile_cache.stats () in
  Mutex.lock t.lock;
  let depth = Queue.length t.queue in
  let s =
    { Service.st_served = t.served; st_ok = t.ok; st_errors = t.errors;
      st_timeouts = t.timeouts; st_shed = t.shed; st_retries = 0;
      st_depth = depth;
      st_mem_hits = mem_hits;
      st_mem_misses = mem_misses;
      st_disk_hits =
        (match ds with Some s -> s.Disk_cache.hits | None -> 0);
      st_disk_misses =
        (match ds with Some s -> s.Disk_cache.misses | None -> 0);
      st_entries =
        (match dc with Some d -> Disk_cache.entries d | None -> 0);
      st_quarantined =
        (match dc with Some d -> Disk_cache.quarantine_count d | None -> 0);
      st_uptime_ms = ms_of_ns (Int64.sub (now_ns ()) t.started_ns);
      st_metrics = metrics }
  in
  Mutex.unlock t.lock;
  s

(* Degradation probe: cheap, answered inline (never queued), and
   side-effect free.  A reason string is machine-matchable; the report
   is ok iff there are none. *)
let health t : Service.health_report =
  Mutex.lock t.lock;
  let stopping = t.stopping in
  let served = t.served and shed = t.shed in
  Mutex.unlock t.lock;
  let quarantined =
    match Compile_cache.persistent () with
    | Some d -> Disk_cache.quarantine_count d
    | None -> 0
  in
  let reasons = ref [] in
  let flag cond reason = if cond then reasons := reason :: !reasons in
  flag stopping "draining";
  let denom = served + shed in
  flag (denom > 0 && float_of_int shed /. float_of_int denom > 0.10)
    "shed-rate";
  flag (quarantined > 0) "quarantine";
  { Service.hr_ok = !reasons = []; hr_reasons = List.rev !reasons }

let initiate_stop t =
  Mutex.lock t.lock;
  t.stopping <- true;
  Condition.broadcast t.cond;
  Mutex.unlock t.lock

let stop t =
  initiate_stop t;
  Mutex.lock t.lock;
  let ws = t.workers in
  t.workers <- [];
  Mutex.unlock t.lock;
  List.iter Domain.join ws

(* --- submission -------------------------------------------------------- *)

let mk_slot t rq cb =
  let deadline_ms =
    Option.value rq.Service.rq_deadline_ms ~default:t.cfg.deadline_ms
  in
  let enq = now_ns () in
  { s_req = rq; s_cb = cb; s_enq_ns = enq;
    s_deadline_ns =
      (if deadline_ms > 0 then
         Int64.add enq (Int64.mul (Int64.of_int deadline_ms) 1_000_000L)
       else Int64.max_int) }

let submit t rq cb =
  let slot = mk_slot t rq cb in
  match rq.Service.rq_op with
  | Service.Ping -> respond t slot Service.Pong
  | Service.Stats -> respond t slot (Service.Stats_reply (stats t))
  | Service.Health -> respond t slot (Service.Health_reply (health t))
  | Service.Shutdown ->
      initiate_stop t;
      respond t slot Service.Bye
  | Service.Bench _ ->
      let verdict =
        Mutex.lock t.lock;
        let v =
          if t.stopping then `Draining
          else if Queue.length t.queue >= t.cfg.queue_depth then begin
            t.shed <- t.shed + 1;
            `Shed (Queue.length t.queue)
          end
          else begin
            Queue.push slot t.queue;
            Condition.signal t.cond;
            `Queued (Queue.length t.queue)
          end
        in
        Mutex.unlock t.lock;
        v
      in
      match verdict with
      | `Queued depth ->
          M.inc m_accepted;
          M.set_gauge m_queue_depth (float_of_int depth);
          Bs_obs.Trace.flow_start ~id:rq.Service.rq_id
            ~args:[ ("op", Service.op_label rq.Service.rq_op) ]
            flow_name
      | `Shed depth -> respond t slot (Service.Overloaded depth)
      | `Draining ->
          respond t slot
            (Service.Failed
               [ Service.diag_internal "server is shutting down" ])

let submit_wait t rq =
  let m = Mutex.create () in
  let c = Condition.create () in
  let cell = ref None in
  submit t rq (fun resp ->
      Mutex.lock m;
      cell := Some resp;
      Condition.signal c;
      Mutex.unlock m);
  Mutex.lock m;
  while Option.is_none !cell do
    Condition.wait c m
  done;
  let r = Option.get !cell in
  Mutex.unlock m;
  r

(* --- transports -------------------------------------------------------- *)

let send_line oc wlock resp =
  Mutex.lock wlock;
  (try
     output_string oc (Service.response_line resp);
     output_char oc '\n';
     flush oc
   with Sys_error _ ->
     (* client went away; the work was still done and accounted *)
     ());
  Mutex.unlock wlock

(* The line loop of both transports: answer each request line of [ic]
   through [send] until end of input or a [Shutdown] request, which runs
   [on_shutdown].  An unparsable line gets BS-SRV-01 with id -1. *)
let serve_lines t ic send ~on_shutdown =
  let rec loop () =
    match input_line ic with
    | exception (End_of_file | Sys_error _) -> ()
    | line when String.trim line = "" -> loop ()
    | line -> (
        match Service.request_of_line line with
        | Error e ->
            send
              { Service.rs_id = -1;
                rs_status = Service.Failed [ Service.diag_bad_request e ];
                rs_cached = false; rs_ms = 0.0 };
            loop ()
        | Ok rq ->
            submit t rq send;
            if rq.Service.rq_op = Service.Shutdown then on_shutdown ()
            else loop ())
  in
  loop ()

let handle_conn t ~notify_shutdown fd =
  let send = send_line (Unix.out_channel_of_descr fd) (Mutex.create ()) in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      serve_lines t (Unix.in_channel_of_descr fd) send
        ~on_shutdown:notify_shutdown)

let replace_stale_socket path =
  if Sys.file_exists path then begin
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      match Unix.connect fd (Unix.ADDR_UNIX path) with
      | () -> true
      | exception Unix.Unix_error _ -> false
    in
    (try Unix.close fd with Unix.Unix_error _ -> ());
    if live then failwith (path ^ ": a server is already listening here");
    (try Sys.remove path with Sys_error _ -> ())
  end

let serve_unix t ~socket ?(on_ready = fun () -> ()) () =
  replace_stale_socket socket;
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX socket);
  Unix.listen lfd 64;
  (* [close] does not wake a thread blocked in [accept]; [shutdown]
     does, making accept return EINVAL immediately *)
  let wake_listener () =
    try Unix.shutdown lfd Unix.SHUTDOWN_RECEIVE
    with Unix.Unix_error _ -> ()
  in
  let on_signal _ =
    initiate_stop t;
    wake_listener ()
  in
  let prev_term = Sys.signal Sys.sigterm (Sys.Signal_handle on_signal) in
  let prev_int = Sys.signal Sys.sigint (Sys.Signal_handle on_signal) in
  on_ready ();
  let rec accept_loop () =
    match Unix.accept lfd with
    | fd, _ ->
        ignore
          (Thread.create
             (fun () -> handle_conn t ~notify_shutdown:wake_listener fd)
             ());
        accept_loop ()
    | exception
        Unix.Unix_error
          ((Unix.EINTR | Unix.EBADF | Unix.EINVAL | Unix.ECONNABORTED), _, _)
      ->
        if draining t then () else accept_loop ()
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close lfd with Unix.Unix_error _ -> ());
      Sys.set_signal Sys.sigterm prev_term;
      Sys.set_signal Sys.sigint prev_int;
      (try Sys.remove socket with Sys_error _ -> ());
      stop t)
    accept_loop

let serve_channel t ic oc =
  serve_lines t ic (send_line oc (Mutex.create ())) ~on_shutdown:ignore;
  stop t

(* --- client ------------------------------------------------------------ *)

type conn = { c_fd : Unix.file_descr; c_ic : in_channel; c_oc : out_channel }

let connect ~socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX socket)
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  { c_fd = fd; c_ic = Unix.in_channel_of_descr fd;
    c_oc = Unix.out_channel_of_descr fd }

let call conn rq =
  output_string conn.c_oc (Service.request_line rq);
  output_char conn.c_oc '\n';
  flush conn.c_oc;
  let rec read () =
    let line = input_line conn.c_ic in
    match Service.response_of_json (Result.get_ok (Jsonx.parse line)) with
    | Ok resp when resp.Service.rs_id = rq.Service.rq_id -> resp
    | Ok _ -> read ()  (* response to a different pipelined request *)
    | Error e -> failwith ("bad response from server: " ^ e)
    | exception Invalid_argument _ ->
        failwith ("unparsable response from server: " ^ line)
  in
  read ()

let close conn =
  (try close_out_noerr conn.c_oc with _ -> ());
  try Unix.close conn.c_fd with Unix.Unix_error _ -> ()
