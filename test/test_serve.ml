open Bitspec
open Bs_support

(* Tests for the compile service stack: the JSON codec, the crash-safe
   disk cache (corruption -> quarantine, tmp sweep, reopen), the
   persistent compile cache, and the server engine — exception
   isolation, admission deadlines, memoised repeats, fuel, load
   shedding, and the jobs-independence of the canonical log. *)

let with_tmpdir f =
  let dir =
    Filename.temp_file "bs-serve-test" ""
  in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
    (fun () -> f dir)

(* --- jsonx ------------------------------------------------------------- *)

let test_jsonx_roundtrip () =
  let j =
    Jsonx.Obj
      [ ("s", Jsonx.Str "a\"b\\c\nd\teof");
        ("n", Jsonx.Num 2.5);
        ("i", Jsonx.int (-42));
        ("b", Jsonx.Bool true);
        ("z", Jsonx.Null);
        ("l", Jsonx.Arr [ Jsonx.int 1; Jsonx.Str "x"; Jsonx.Bool false ]) ]
  in
  match Jsonx.parse (Jsonx.to_string j) with
  | Error e -> Alcotest.fail ("reparse failed: " ^ e)
  | Ok j' ->
      Alcotest.(check string) "roundtrip" (Jsonx.to_string j)
        (Jsonx.to_string j');
      Alcotest.(check (option string)) "member access" (Some "a\"b\\c\nd\teof")
        (Jsonx.mem_string "s" j');
      Alcotest.(check (option int)) "int access" (Some (-42))
        (Jsonx.mem_int "i" j')

let test_jsonx_errors () =
  let bad s =
    match Jsonx.parse s with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (Printf.sprintf "%S should not parse" s)
  in
  bad "";
  bad "{";
  bad "{\"a\":}";
  bad "[1,]";
  bad "\"unterminated";
  bad "{\"a\":1} trailing";
  (* the depth bound refuses a pathological nest instead of overflowing *)
  bad (String.concat "" (List.init 200 (fun _ -> "[")))

(* --- protocol codec ---------------------------------------------------- *)

let test_protocol_roundtrip () =
  let rq =
    { Service.rq_id = 12;
      rq_op =
        Service.Bench
          { Service.b_workload = "CRC32"; b_arch = Driver.Bitspec_arch;
            b_heuristic = Bs_interp.Profile.Havg; b_no_expander = true };
      rq_deadline_ms = Some 250; rq_fuel = Some 1_000_000;
      rq_chaos = Some Service.Crash }
  in
  (match Service.request_of_line (Service.request_line rq) with
  | Error e -> Alcotest.fail ("request reparse: " ^ e)
  | Ok rq' ->
      Alcotest.(check string) "request roundtrips" (Service.request_line rq)
        (Service.request_line rq'));
  let rs =
    { Service.rs_id = 12;
      rs_status =
        Service.Done
          { Service.m_checksum = -1L; m_instrs = 5; m_cycles = 9;
            m_misspecs = 1; m_energy = 12.5; m_epi = 2.5 };
      rs_cached = true; rs_ms = 1.25 }
  in
  (match
     Service.response_of_json
       (Result.get_ok (Jsonx.parse (Service.response_line rs)))
   with
  | Error e -> Alcotest.fail ("response reparse: " ^ e)
  | Ok rs' ->
      Alcotest.(check string) "response roundtrips"
        (Service.response_line rs) (Service.response_line rs'));
  (* checksum travels as a string: no precision loss through Num *)
  (match
     Service.response_of_json
       (Result.get_ok (Jsonx.parse (Service.response_line rs)))
   with
  | Ok { Service.rs_status = Service.Done m; _ } ->
      Alcotest.(check int64) "int64 checksum survives" (-1L)
        m.Service.m_checksum
  | _ -> Alcotest.fail "expected Done");
  match Service.request_of_line "{\"id\":1}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "opless request should not parse"

(* --- disk cache -------------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_disk_cache_basic () =
  with_tmpdir @@ fun dir ->
  let c = Disk_cache.open_dir dir in
  Alcotest.(check (option bytes)) "empty miss" None (Disk_cache.load c ~key:"a");
  Disk_cache.store c ~key:"a" (Bytes.of_string "payload-a");
  Disk_cache.store c ~key:"b" (Bytes.of_string "payload-b");
  Alcotest.(check (option bytes)) "hit" (Some (Bytes.of_string "payload-a"))
    (Disk_cache.load c ~key:"a");
  Alcotest.(check int) "two entries" 2 (Disk_cache.entries c);
  (* a reopened cache serves the same entries *)
  let c2 = Disk_cache.open_dir dir in
  Alcotest.(check (option bytes)) "hit after reopen"
    (Some (Bytes.of_string "payload-b"))
    (Disk_cache.load c2 ~key:"b");
  Disk_cache.invalidate c2 ~key:"b";
  Alcotest.(check (option bytes)) "invalidated" None
    (Disk_cache.load c2 ~key:"b");
  Alcotest.(check int) "invalidation quarantines" 1
    (Disk_cache.quarantine_count c2)

let test_disk_cache_corruption () =
  with_tmpdir @@ fun dir ->
  let c = Disk_cache.open_dir dir in
  Disk_cache.store c ~key:"k" (Bytes.of_string "precious bits");
  let path = Disk_cache.key_path c ~key:"k" in
  (* flip payload bytes on disk behind the cache's back *)
  let s = read_file path in
  let oc = open_out_bin path in
  output_string oc (String.sub s 0 (String.length s - 4));
  output_string oc "XXXX";
  close_out oc;
  Alcotest.(check (option bytes)) "corrupt entry is a miss, not a crash"
    None
    (Disk_cache.load c ~key:"k");
  Alcotest.(check int) "corrupt entry quarantined" 1
    (Disk_cache.quarantine_count c);
  Alcotest.(check bool) "entry removed from the live set" true
    (not (Sys.file_exists path));
  (* the key is writable again and round-trips *)
  Disk_cache.store c ~key:"k" (Bytes.of_string "recompiled");
  Alcotest.(check (option bytes)) "recompiled entry served"
    (Some (Bytes.of_string "recompiled"))
    (Disk_cache.load c ~key:"k")

let test_disk_cache_tmp_sweep () =
  with_tmpdir @@ fun dir ->
  let c = Disk_cache.open_dir dir in
  Disk_cache.store c ~key:"k" (Bytes.of_string "v");
  (* simulate a writer killed mid-store: an orphan temp file (in-flight
     writes live in the root until their atomic rename into a shard) *)
  let orphan = Filename.concat dir "tmp-9999-0-deadbeef" in
  let oc = open_out_bin orphan in
  output_string oc "half a write";
  close_out oc;
  let c2 = Disk_cache.open_dir dir in
  Alcotest.(check bool) "orphan temp swept on reopen" true
    (not (Sys.file_exists orphan));
  Alcotest.(check int) "sweep counted" 1 (Disk_cache.stats c2).Disk_cache.swept_tmp;
  Alcotest.(check (option bytes)) "committed entry untouched"
    (Some (Bytes.of_string "v"))
    (Disk_cache.load c2 ~key:"k")

(* --- persistent compile cache ------------------------------------------ *)

let test_persistent_compile_cache () =
  with_tmpdir @@ fun dir ->
  let w = Bs_workloads.Registry.find "CRC32" in
  Fun.protect
    ~finally:(fun () ->
      Compile_cache.set_persistent None;
      Compile_cache.reset ())
    (fun () ->
      Compile_cache.reset ();
      Compile_cache.set_persistent (Some dir);
      let origin = ref Compile_cache.Fresh in
      let c1 =
        Experiment.compile_workload ~origin Driver.bitspec_config w
      in
      Alcotest.(check bool) "first compile is fresh" true
        (!origin = Compile_cache.Fresh);
      (* drop the in-memory layer: the disk layer must serve the reload *)
      Compile_cache.reset ();
      Compile_cache.set_persistent (Some dir);
      let origin = ref Compile_cache.Fresh in
      let c2 =
        Experiment.compile_workload ~origin Driver.bitspec_config w
      in
      Alcotest.(check bool) "recompile served from disk" true
        (!origin = Compile_cache.Disk);
      (* the deserialized compile simulates to the same checksum *)
      let run (c : Driver.compiled) =
        let r =
          Driver.run_machine
            ~setup:(w.Bs_workloads.Workload.test.Bs_workloads.Workload.setup
                      c.Driver.ir)
            c ~entry:w.Bs_workloads.Workload.entry
            ~args:w.Bs_workloads.Workload.test.Bs_workloads.Workload.args
        in
        Experiment.metrics_of_run r
      in
      let m1 = run c1 and m2 = run c2 in
      Alcotest.(check int64) "identical checksum" m1.Experiment.checksum
        m2.Experiment.checksum;
      Alcotest.(check int) "identical cycles" m1.Experiment.cycles
        m2.Experiment.cycles)

(* --- server engine ----------------------------------------------------- *)

let bench_crc =
  { Service.b_workload = "CRC32"; b_arch = Driver.Bitspec_arch;
    b_heuristic = Bs_interp.Profile.Hmax; b_no_expander = false }

let rq ?deadline_ms ?fuel ?chaos id op =
  { Service.rq_id = id; rq_op = op; rq_deadline_ms = deadline_ms;
    rq_fuel = fuel; rq_chaos = chaos }

let with_server ?(cfg = Server.default_config) f =
  Compile_cache.reset ();
  let t = Server.start cfg in
  Fun.protect ~finally:(fun () -> Server.stop t) (fun () -> f t)

let one_worker = { Server.default_config with Server.jobs = 1 }

let crc ?deadline_ms ?fuel ?chaos t id =
  Server.submit_wait t
    (rq ?deadline_ms ?fuel ?chaos id (Service.Bench bench_crc))

let diag_code (rs : Service.response) =
  match rs.Service.rs_status with
  | Service.Failed (d :: _) -> d.Diag.code
  | st -> Service.status_name st

let done_metrics (rs : Service.response) =
  match rs.Service.rs_status with
  | Service.Done m -> m
  | st -> Alcotest.fail ("expected ok, got " ^ Service.status_name st)

let test_server_basics () =
  with_server ~cfg:{ Server.default_config with Server.jobs = 2 } @@ fun t ->
  (match (Server.submit_wait t (rq 1 Service.Ping)).Service.rs_status with
  | Service.Pong -> ()
  | _ -> Alcotest.fail "expected pong");
  let r1 = Server.submit_wait t (rq 2 (Service.Bench bench_crc)) in
  (match r1.Service.rs_status with
  | Service.Done m ->
      Alcotest.(check bool) "ran some instructions" true
        (m.Service.m_instrs > 0)
  | _ -> Alcotest.fail "expected ok");
  Alcotest.(check bool) "first compile not cached" false
    r1.Service.rs_cached;
  let r2 = Server.submit_wait t (rq 3 (Service.Bench bench_crc)) in
  Alcotest.(check bool) "second identical request cached" true
    r2.Service.rs_cached;
  (* unknown workload: structured diagnostic, server stays up *)
  (match
     (Server.submit_wait t
        (rq 4 (Service.Bench { bench_crc with Service.b_workload = "nope" })))
       .Service.rs_status
   with
  | Service.Failed (d :: _) ->
      Alcotest.(check string) "BS-SRV-02" "BS-SRV-02" d.Diag.code
  | _ -> Alcotest.fail "expected a structured failure");
  match (Server.submit_wait t (rq 5 (Service.Bench bench_crc))).Service.rs_status with
  | Service.Done _ -> ()
  | _ -> Alcotest.fail "server still serves after a poisoned request"

let test_server_crash_isolation () =
  (* one worker: the request after the crash runs on the same worker *)
  with_server ~cfg:one_worker @@ fun t ->
  Alcotest.(check string) "crash answers BS-SRV-03" "BS-SRV-03"
    (diag_code (crc t 1 ~chaos:Service.Crash));
  ignore (done_metrics (crc t 2));
  let s = Server.stats t in
  Alcotest.(check int) "one error" 1 s.Service.st_errors;
  Alcotest.(check int) "one ok" 1 s.Service.st_ok

(* Begin-events named [name] in the trace buffer, of request [rid] when
   given. *)
let spans_named ?rid name =
  List.length
    (List.filter
       (fun (e : Bs_obs.Trace.event) ->
         e.Bs_obs.Trace.name = name
         && e.Bs_obs.Trace.ph = Bs_obs.Trace.B
         && (rid = None
            || List.assoc_opt "rid" e.Bs_obs.Trace.args
               = Option.map string_of_int rid))
       (Bs_obs.Trace.events ()))

let traced f =
  Bs_obs.Trace.enable ();
  Fun.protect ~finally:Bs_obs.Trace.reset f

let test_server_admission_deadline () =
  (* one worker held busy by a hang: a request queued behind it with a
     short deadline is answered Timed_out when the worker takes it off
     the queue, without being compiled *)
  with_server ~cfg:one_worker @@ fun t ->
  let got = Array.make 2 None in
  let remaining = Atomic.make 2 in
  let cb i rs =
    got.(i) <- Some rs.Service.rs_status;
    Atomic.decr remaining
  in
  traced (fun () ->
      Server.submit t
        (rq 1 (Service.Bench bench_crc) ~chaos:(Service.Hang_ms 400))
        (cb 0);
      Server.submit t (rq 2 (Service.Bench bench_crc) ~deadline_ms:50) (cb 1);
      while Atomic.get remaining > 0 do
        Thread.delay 0.01
      done;
      Alcotest.(check int) "the late request never compiled" 0
        (spans_named ~rid:2 "experiment:compile"));
  (match got with
  | [| Some (Service.Done _); Some Service.Timed_out |] -> ()
  | _ -> Alcotest.fail "expected ok for the hang, timeout for the late one");
  ignore (done_metrics (crc t 3));
  Alcotest.(check int) "timeout counted" 1 (Server.stats t).Service.st_timeouts

let test_server_memoised_repeat () =
  (* the simulation memo is process-wide, so this cell is one no other
     test in the suite runs *)
  let b =
    { Service.b_workload = "bitcount"; b_arch = Driver.Baseline;
      b_heuristic = Bs_interp.Profile.Hmin; b_no_expander = true }
  in
  with_server ~cfg:one_worker @@ fun t ->
  let m1, m2 =
    traced (fun () ->
        let m1 = done_metrics (Server.submit_wait t (rq 1 (Service.Bench b))) in
        let m2 = done_metrics (Server.submit_wait t (rq 2 (Service.Bench b))) in
        Alcotest.(check int) "one simulation for two requests" 1
          (spans_named "experiment:simulate");
        (m1, m2))
  in
  Alcotest.(check bool) "identical replies" true (m1 = m2);
  (* the reply is the experiment pipeline's own run of the cell *)
  let _, r =
    Experiment.run_test
      (Driver.config_of ~arch:b.Service.b_arch ~heuristic:b.Service.b_heuristic
         ~no_expander:b.Service.b_no_expander)
      (Bs_workloads.Registry.find b.Service.b_workload)
  in
  let m = Experiment.metrics_of_run r in
  Alcotest.(check int64) "checksum" m.Experiment.checksum m2.Service.m_checksum;
  Alcotest.(check int) "instructions" m.Experiment.instrs m2.Service.m_instrs;
  Alcotest.(check (float 0.0)) "energy" m.Experiment.total_energy
    m2.Service.m_energy

let test_server_fuel () =
  (* a run of I instructions finishes under fuel F exactly when I <= F,
     on the server's memoised path and on a fresh Driver.run_machine *)
  with_server ~cfg:one_worker @@ fun t ->
  let instrs = (done_metrics (crc t 1)).Service.m_instrs in
  Alcotest.(check int) "fuel = I finishes the same run" instrs
    (done_metrics (crc t 2 ~fuel:instrs)).Service.m_instrs;
  Alcotest.(check string) "fuel = I - 1 is the fuel diagnostic" "BS-SRV-04"
    (diag_code (crc t 3 ~fuel:(instrs - 1)));
  let w = Bs_workloads.Registry.find "CRC32" in
  let c = Experiment.compile_workload Driver.bitspec_config w in
  let outcome fuel =
    (Driver.run_machine ~fuel
       ~setup:(w.Bs_workloads.Workload.test.Bs_workloads.Workload.setup
                 c.Driver.ir)
       c ~entry:w.Bs_workloads.Workload.entry
       ~args:w.Bs_workloads.Workload.test.Bs_workloads.Workload.args)
      .Bs_sim.Machine.outcome
  in
  Alcotest.(check bool) "Driver.run_machine finishes at fuel = I" true
    (outcome instrs = Outcome.Finished);
  Alcotest.(check bool) "Driver.run_machine runs out at I - 1" true
    (outcome (instrs - 1) = Outcome.Out_of_fuel)

let test_server_load_shedding () =
  (* one slow worker, queue depth 2: a burst must shed the overflow with
     a structured Overloaded, never block or drop *)
  let cfg = { one_worker with Server.queue_depth = 2 } in
  with_server ~cfg @@ fun t ->
  let n = 12 in
  let got = Array.make n None in
  let remaining = Atomic.make n in
  for i = 0 to n - 1 do
    Server.submit t
      (rq (i + 1) (Service.Bench bench_crc) ~chaos:(Service.Hang_ms 60))
      (fun rs ->
        got.(i) <- Some rs;
        Atomic.decr remaining)
  done;
  let deadline = Unix.gettimeofday () +. 30.0 in
  while Atomic.get remaining > 0 && Unix.gettimeofday () < deadline do
    Thread.yield ()
  done;
  Alcotest.(check int) "every request answered" 0 (Atomic.get remaining);
  let shed, other =
    Array.fold_left
      (fun (s, o) r ->
        match r with
        | Some { Service.rs_status = Service.Overloaded _; _ } -> (s + 1, o)
        | Some _ -> (s, o + 1)
        | None -> (s, o))
      (0, 0) got
  in
  Alcotest.(check bool) "burst shed some requests" true (shed > 0);
  Alcotest.(check int) "shed + served = all" n (shed + other);
  let s = Server.stats t in
  Alcotest.(check int) "shed counted" shed s.Service.st_shed

let test_server_jobs_identical_log () =
  (* satellite 3 + tentpole determinism: the canonical log of a seeded
     zipfian run is byte-identical serving with 1 worker or 4 *)
  let lg =
    { Loadgen.default_cfg with
      Loadgen.lg_requests = 40; lg_clients = 3; lg_crash_every = 7 }
  in
  let crashes =
    List.length
      (List.filter
         (fun r -> r.Service.rq_chaos = Some Service.Crash)
         (Loadgen.plan lg))
  in
  let log jobs =
    with_server ~cfg:{ Server.default_config with Server.jobs } @@ fun t ->
    let pairs, s = Loadgen.run lg (Loadgen.In_process t) in
    Alcotest.(check int)
      (Printf.sprintf "jobs=%d: all requests answered" jobs)
      lg.Loadgen.lg_requests s.Loadgen.sm_requests;
    Alcotest.(check int)
      (Printf.sprintf "jobs=%d: failures are the injected crashes" jobs)
      crashes s.Loadgen.sm_errors;
    String.concat "\n" (Loadgen.canonical_log pairs)
  in
  Alcotest.(check string) "canonical log: jobs=1 == jobs=4" (log 1) (log 4)

let test_server_draining_refuses () =
  with_server @@ fun t ->
  (match (Server.submit_wait t (rq 1 Service.Shutdown)).Service.rs_status with
  | Service.Bye -> ()
  | _ -> Alcotest.fail "expected bye");
  Alcotest.(check bool) "draining" true (Server.draining t);
  match (Server.submit_wait t (rq 2 (Service.Bench bench_crc))).Service.rs_status with
  | Service.Failed _ -> ()
  | _ -> Alcotest.fail "draining server must refuse new bench work"

let suite =
  [ Alcotest.test_case "jsonx roundtrips" `Quick test_jsonx_roundtrip;
    Alcotest.test_case "jsonx rejects malformed input" `Quick
      test_jsonx_errors;
    Alcotest.test_case "protocol codec roundtrips" `Quick
      test_protocol_roundtrip;
    Alcotest.test_case "disk cache stores and reopens" `Quick
      test_disk_cache_basic;
    Alcotest.test_case "disk cache quarantines corruption" `Quick
      test_disk_cache_corruption;
    Alcotest.test_case "disk cache sweeps orphan temp files" `Quick
      test_disk_cache_tmp_sweep;
    Alcotest.test_case "persistent compile cache survives restart" `Slow
      test_persistent_compile_cache;
    Alcotest.test_case "server serves, caches and isolates" `Slow
      test_server_basics;
    Alcotest.test_case "server isolates a crashing request" `Slow
      test_server_crash_isolation;
    Alcotest.test_case "admission deadline answers a queued request" `Slow
      test_server_admission_deadline;
    Alcotest.test_case "a repeated request simulates once" `Slow
      test_server_memoised_repeat;
    Alcotest.test_case "fuel is checked against the run's length" `Slow
      test_server_fuel;
    Alcotest.test_case "bounded queue sheds structurally" `Slow
      test_server_load_shedding;
    Alcotest.test_case "canonical log is jobs-independent" `Slow
      test_server_jobs_identical_log;
    Alcotest.test_case "draining server refuses new work" `Quick
      test_server_draining_refuses ]
