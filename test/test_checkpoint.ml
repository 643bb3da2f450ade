open Bs_support
open Bs_interp
open Bitspec

(* Checkpoint/restore and intermittent-power execution.

   Covered here:
   - Memimage snapshot/restore round-trips under random write sequences,
     exercising both the boxed [write] path and the [write_int]/[read_int]
     fast paths the simulator uses;
   - the undo journal restores exactly the state a snapshot at the last
     commit point would;
   - power traces are pure functions of (seed, distribution);
   - a checkpointed run under injected outages reproduces the fault-free
     checksum bit for bit, with restores and re-execution accounted;
   - the livelock detector: an adversarial trace that strikes a hot PC
     before every forward-progress checkpoint first degrades the policy,
     then halts with [Outcome.Livelock];
   - harvest campaigns are byte-identical at any job count. *)

(* A module with a global so the image has initialised contents. *)
let tiny_ir =
  lazy
    (match
       Driver.try_compile ~config:Driver.baseline_config
         ~source:"u32 g = 7; u32 f(u32 p) { g = g + p; return g; }"
         ~train:[ ("f", [ 1L ]) ] ()
     with
    | Ok c -> c.Driver.ir
    | Error _ -> Alcotest.fail "tiny module failed to compile")

let fresh_mem () = Memimage.create ~size:65536 (Lazy.force tiny_ir)

(* One random write, drawn from the same mix of paths the machine and
   interpreter use: boxed int64 writes and the unboxed fast path, at
   widths 8/16/32 (plus 64 for the boxed path only). *)
let random_write rng mem =
  let size = Memimage.size mem in
  let addr = Memimage.globals_base + Rng.int rng (size - Memimage.globals_base - 8) in
  match Rng.int rng 7 with
  | 0 -> Memimage.write mem ~width:8 addr (Int64.of_int (Rng.int rng 256))
  | 1 -> Memimage.write mem ~width:16 addr (Int64.of_int (Rng.int rng 65536))
  | 2 -> Memimage.write mem ~width:32 addr (Rng.next rng)
  | 3 -> Memimage.write mem ~width:64 addr (Rng.next rng)
  | 4 -> Memimage.write_int mem ~width:8 addr (Rng.int rng 256)
  | 5 -> Memimage.write_int mem ~width:16 addr (Rng.int rng 65536)
  | _ -> Memimage.write_int mem ~width:32 addr (Rng.int rng 0x3FFFFFFF)

let prop_snapshot_roundtrip =
  QCheck.Test.make ~name:"snapshot/restore round-trips random writes"
    ~count:40
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create (Int64.of_int (seed + 1)) in
      let mem = fresh_mem () in
      for _ = 1 to 50 do random_write rng mem done;
      let s = Memimage.snapshot mem in
      (* probe a few addresses through both read paths before clobbering *)
      let probes =
        List.init 8 (fun _ ->
            let a =
              Memimage.globals_base
              + Rng.int rng (Memimage.size mem - Memimage.globals_base - 8)
            in
            (a, Memimage.read mem ~width:32 a, Memimage.read_int mem ~width:16 a))
      in
      for _ = 1 to 50 do random_write rng mem done;
      Memimage.restore mem s;
      List.for_all
        (fun (a, v32, v16) ->
          Memimage.read mem ~width:32 a = v32
          && Memimage.read_int mem ~width:16 a = v16)
        probes
      && Memimage.snapshot_equal s (Memimage.snapshot mem))

let prop_journal_undo =
  QCheck.Test.make ~name:"journal undo restores the last commit point"
    ~count:40
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create (Int64.of_int (seed + 2)) in
      let mem = fresh_mem () in
      for _ = 1 to 30 do random_write rng mem done;
      Memimage.journal_start mem;
      for _ = 1 to 30 do random_write rng mem done;
      Memimage.journal_commit mem;
      let at_commit = Memimage.snapshot mem in
      for _ = 1 to 40 do random_write rng mem done;
      let dirty = Memimage.journal_pending mem in
      Memimage.journal_undo mem;
      Memimage.journal_stop mem;
      dirty > 0 && Memimage.snapshot_equal at_commit (Memimage.snapshot mem))

(* write_int and write must agree through both read paths *)
let test_fast_path_agreement () =
  let mem = fresh_mem () in
  let a = Memimage.globals_base + 64 in
  List.iter
    (fun w ->
      let v = 0x12345678 land ((1 lsl w) - 1) in
      Memimage.write_int mem ~width:w a v;
      Alcotest.(check int64)
        (Printf.sprintf "write_int/read w=%d" w)
        (Int64.of_int v) (Memimage.read mem ~width:w a);
      Memimage.write mem ~width:w (a + 16) (Int64.of_int v);
      Alcotest.(check int)
        (Printf.sprintf "write/read_int w=%d" w)
        v
        (Memimage.read_int mem ~width:w (a + 16)))
    [ 8; 16; 32 ]

(* --- power traces ------------------------------------------------------- *)

let trace_fires dist ~seed =
  let t = Bs_sim.Powertrace.create ~seed ~hot_pcs:[ 3; 7; 11 ] dist in
  List.init 3000 (fun i ->
      Bs_sim.Powertrace.fires t ~instrs:(i + 1) ~pc:((i * 5) mod 13))

let test_trace_determinism () =
  List.iter
    (fun dist ->
      let name = Bs_sim.Powertrace.dist_to_string dist in
      let a = trace_fires dist ~seed:9L and b = trace_fires dist ~seed:9L in
      Alcotest.(check (list bool)) (name ^ ": same seed, same trace") a b;
      Alcotest.(check bool) (name ^ ": fires at least once") true
        (List.mem true a))
    [ Bs_sim.Powertrace.Periodic 37;
      Bs_sim.Powertrace.Exponential 41.0;
      Bs_sim.Powertrace.Adversarial { every = 23 } ]

let test_dist_strings () =
  List.iter
    (fun s ->
      match Bs_sim.Powertrace.dist_of_string s with
      | None -> Alcotest.failf "%s did not parse" s
      | Some d ->
          Alcotest.(check string) s s (Bs_sim.Powertrace.dist_to_string d))
    [ "periodic:500"; "exp:2000"; "hotpc:40" ];
  Alcotest.(check bool) "garbage rejected" true
    (Bs_sim.Powertrace.dist_of_string "periodic:-1" = None
    && Bs_sim.Powertrace.dist_of_string "nope:3" = None)

(* --- checkpointed execution -------------------------------------------- *)

let loop_source =
  "u32 acc = 0;\n\
   u32 f(u32 n) {\n\
  \  u8 s = 1;\n\
  \  u32 i = 0;\n\
  \  while (i < n) {\n\
  \    u8 x = i & 15;\n\
  \    s = (s + x) & 255;\n\
  \    acc = acc + s;\n\
  \    i = i + 1;\n\
  \  }\n\
  \  return acc + s;\n\
   }\n"

let compile_loop () =
  match
    Driver.try_compile ~config:Driver.bitspec_config ~source:loop_source
      ~train:[ ("f", [ 200L ]) ] ()
  with
  | Ok c -> c
  | Error _ -> Alcotest.fail "loop source failed to compile"

let hot_pcs_of (c : Driver.compiled) = Campaign.hot_pcs_of c.Driver.program

let power_of c ~dist ~seed ~policy ~retries =
  { Bs_sim.Machine.trace =
      Bs_sim.Powertrace.create ~seed ~hot_pcs:(hot_pcs_of c) dist;
    policy;
    max_retries = retries }

let test_power_run_correct () =
  let c = compile_loop () in
  let golden = Driver.run_machine c ~entry:"f" ~args:[ 200L ] in
  Alcotest.(check bool) "fault-free run finishes" true
    (golden.Bs_sim.Machine.outcome = Outcome.Finished);
  let pw =
    power_of c ~dist:(Bs_sim.Powertrace.Periodic 131) ~seed:5L
      ~policy:(Bs_sim.Checkpoint.Interval 97) ~retries:8
  in
  let r = Driver.run_machine ~power:pw c ~entry:"f" ~args:[ 200L ] in
  let ctr = r.Bs_sim.Machine.ctr in
  Alcotest.(check bool) "finishes through outages" true
    (r.Bs_sim.Machine.outcome = Outcome.Finished);
  Alcotest.(check int64) "checksum matches the fault-free run"
    golden.Bs_sim.Machine.r0 r.Bs_sim.Machine.r0;
  Alcotest.(check bool) "outages actually struck" true
    (ctr.Bs_sim.Counters.restores > 0);
  Alcotest.(check bool) "re-execution accounted" true
    (ctr.Bs_sim.Counters.reexec_instrs > 0);
  Alcotest.(check bool) "checkpoints flushed bytes" true
    (ctr.Bs_sim.Counters.checkpoint_bytes > 0);
  (* wasted work is bounded by the total instruction count *)
  Alcotest.(check bool) "reexec < instrs" true
    (ctr.Bs_sim.Counters.reexec_instrs < ctr.Bs_sim.Counters.instrs)

(* Same trace seed, same policy: checkpointed runs are deterministic. *)
let test_power_run_deterministic () =
  let c = compile_loop () in
  let run () =
    let pw =
      power_of c ~dist:(Bs_sim.Powertrace.Adversarial { every = 40 }) ~seed:7L
        ~policy:(Bs_sim.Checkpoint.Interval 500) ~retries:8
    in
    let r = Driver.run_machine ~power:pw c ~entry:"f" ~args:[ 200L ] in
    ( r.Bs_sim.Machine.r0,
      r.Bs_sim.Machine.ctr.Bs_sim.Counters.restores,
      r.Bs_sim.Machine.ctr.Bs_sim.Counters.reexec_instrs )
  in
  let r0, restores, reexec = run () in
  let r0', restores', reexec' = run () in
  Alcotest.(check int64) "checksum" r0 r0';
  Alcotest.(check int) "restores" restores restores';
  Alcotest.(check int) "reexec" reexec reexec'

(* A store-free speculative loop under an adversarial trace that strikes
   a hot PC before any checkpoint can capture forward progress: the
   detector must degrade once, then give up with [Livelock] instead of
   burning the whole fuel budget re-executing the same window. *)
let livelock_source =
  "u32 f(u32 n) {\n\
  \  u8 s = 1;\n\
  \  u32 i = 0;\n\
  \  while (i < n) {\n\
  \    u8 x = i & 15;\n\
  \    s = (s + x) & 255;\n\
  \    i = i + 1;\n\
  \  }\n\
  \  return s;\n\
   }\n"

let test_livelock_detected () =
  let c =
    match
      Driver.try_compile ~config:Driver.bitspec_config ~source:livelock_source
        ~train:[ ("f", [ 200L ]) ] ()
    with
    | Ok c -> c
    | Error _ -> Alcotest.fail "livelock source failed to compile"
  in
  Alcotest.(check bool) "program has speculative hot pcs" true
    (hot_pcs_of c <> []);
  let pw =
    power_of c ~dist:(Bs_sim.Powertrace.Adversarial { every = 40 }) ~seed:7L
      ~policy:(Bs_sim.Checkpoint.Interval 100000) ~retries:3
  in
  let r = Driver.run_machine ~power:pw c ~entry:"f" ~args:[ 200L ] in
  let ctr = r.Bs_sim.Machine.ctr in
  Alcotest.(check bool) "outcome is Livelock" true
    (r.Bs_sim.Machine.outcome = Outcome.Livelock);
  Alcotest.(check int) "degraded exactly once" 1
    ctr.Bs_sim.Counters.livelock_degrades;
  Alcotest.(check bool) "gave up past the retry budget" true
    (ctr.Bs_sim.Counters.restores > 3);
  (* the whole point: orders of magnitude below the fuel budget *)
  Alcotest.(check bool) "halted early" true
    (ctr.Bs_sim.Counters.instrs < 1_000_000)

(* --- harvest campaigns -------------------------------------------------- *)

let test_harvest_jobs_deterministic () =
  let run jobs =
    Campaign.run_power ~jobs ~policy:(Bs_sim.Checkpoint.Interval 500)
      ~retries:8
      ~dist:(Bs_sim.Powertrace.Exponential 2000.0)
      ~trials:6 ~seed:3L
      (Bs_workloads.Registry.find "bitcount")
  in
  let a = run 1 and b = run 4 in
  Alcotest.(check string) "harvest reports identical at jobs 1 vs 4"
    (Campaign.power_report a) (Campaign.power_report b);
  Alcotest.(check (list string)) "per-trial buckets identical"
    (List.map (fun t -> Campaign.power_bucket t.Campaign.pt_verdict) a.Campaign.p_trials)
    (List.map (fun t -> Campaign.power_bucket t.Campaign.pt_verdict) b.Campaign.p_trials);
  (* every trial classifies into exactly one bucket, and correct trials
     reproduce the fault-free checksum *)
  List.iter
    (fun (t : Campaign.power_trial) ->
      match t.Campaign.pt_verdict with
      | Campaign.P_restored n ->
          Alcotest.(check bool) "restored trial has restores" true
            (n > 0 && t.Campaign.pt_restores = n)
      | Campaign.P_completed ->
          Alcotest.(check int) "completed trial has no restores" 0
            t.Campaign.pt_restores
      | _ -> ())
    a.Campaign.p_trials

let suite =
  [ QCheck_alcotest.to_alcotest prop_snapshot_roundtrip;
    QCheck_alcotest.to_alcotest prop_journal_undo;
    Alcotest.test_case "write_int/read_int fast paths agree" `Quick
      test_fast_path_agreement;
    Alcotest.test_case "power traces are seed-deterministic" `Quick
      test_trace_determinism;
    Alcotest.test_case "distribution strings round-trip" `Quick
      test_dist_strings;
    Alcotest.test_case "checkpointed run reproduces the checksum" `Quick
      test_power_run_correct;
    Alcotest.test_case "checkpointed runs are deterministic" `Quick
      test_power_run_deterministic;
    Alcotest.test_case "adversarial livelock is detected" `Quick
      test_livelock_detected;
    Alcotest.test_case "harvest campaigns are jobs-deterministic" `Quick
      test_harvest_jobs_deterministic ]
