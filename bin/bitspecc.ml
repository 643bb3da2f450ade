(* bitspecc — the BITSPEC command-line driver.

   Subcommands:
     compile   compile a MiniC file, print IR / MIR / disassembly
     run       compile and simulate, print result and counters
     bench     run a named built-in workload under a configuration
     inject    fault-injection campaign against a built-in workload
               (--model bitflip: soft errors; --model power: outages,
               with checkpoint/restore and energy accounting)
     fuzz      differential fuzzing campaign over random programs
     reduce    minimize (or just replay) a crashing MiniC file
     serve     long-running compile service (socket or stdio JSON)
     client    one request against a running server
     loadgen   seeded zipfian load against a running server
     list      list built-in workloads

   Examples:
     bitspecc compile kernel.mc --emit-ir
     bitspecc run kernel.mc --entry f --args 10,20 --arch bitspec
     bitspecc run kernel.mc --entry f --args 10 --power exp:2000
     bitspecc bench rijndael --arch bitspec --heuristic max
     bitspecc inject CRC32 --trials 200 --seed 42
     bitspecc inject CRC32 --model power --dist periodic:1000
     bitspecc inject CRC32 --model power --trials 100 --dist exp:2000 -j 4
     bitspecc fuzz --seed 1 --trials 500 --budget 60
     bitspecc reduce --check test/corpus/crash.mc
     bitspecc serve --socket /tmp/bs.sock --cache-dir /tmp/bs-cache -j 4
     bitspecc client --socket /tmp/bs.sock bench CRC32 --arch bitspec
     bitspecc loadgen --socket /tmp/bs.sock --requests 200 --clients 8

   A pass that fails stops the compile: its diagnostic is printed to
   stderr and the command exits 1. *)

open Cmdliner
open Bitspec
open Bs_support
open Bs_workloads
open Bs_interp
open Bs_energy

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* --- error reporting --------------------------------------------------- *)

(* Run a subcommand body; turn the expected failures into one-line
   [file:line: message] reports on stderr and exit code 1 instead of an
   uncaught-exception backtrace. *)
let with_reporting ?file f =
  let where line =
    match (file, line) with
    | Some p, Some l -> Printf.sprintf "%s:%d: " p l
    | Some p, None -> p ^ ": "
    | None, _ -> ""
  in
  let fail ?line msg =
    Printf.eprintf "%serror: %s\n" (where line) msg;
    exit 1
  in
  try f () with
  | Driver.Failed d ->
      prerr_endline (where d.Diag.line ^ Diag.to_string d);
      exit 1
  | Bs_frontend.Lexer.Error (m, line) -> fail ~line m
  | Bs_frontend.Parser.Error (m, line) -> fail ~line m
  | Bs_frontend.Typecheck.Error (m, line) -> fail ~line m
  | Bs_frontend.Lower.Error m -> fail m
  | Bs_ir.Verifier.Invalid m ->
      fail ("internal: verifier rejected output: " ^ m)
  (* an image that cannot be built; a run's own traps are outcomes *)
  | Memimage.Fault m -> fail ("memory fault: " ^ m)
  | Invalid_argument m | Failure m -> fail m
  | Sys_error m -> fail m

let print_remarks (c : Driver.compiled) =
  List.iter
    (fun r -> print_endline (Bs_obs.Remark.to_string r))
    c.Driver.remarks

(* Run [f] with tracing enabled; on exit write the Chrome trace-event
   JSON to [out] and print the per-phase timing table. *)
let with_trace trace f =
  match trace with
  | None -> f ()
  | Some out ->
      Bs_obs.Trace.enable ();
      Fun.protect
        ~finally:(fun () ->
          Bs_obs.Trace.disable ();
          Bs_obs.Trace.write_chrome out;
          Format.printf "%a" Bs_obs.Trace.pp_phase_table ();
          Printf.printf "trace written to %s\n" out)
        f

(* --- shared options ---------------------------------------------------- *)

let arch_conv =
  Arg.enum
    [ ("baseline", Driver.Baseline);
      ("bitspec", Driver.Bitspec_arch);
      ("thumb", Driver.Thumb) ]

let heuristic_conv =
  Arg.enum [ ("max", Profile.Hmax); ("avg", Profile.Havg); ("min", Profile.Hmin) ]

let arch_arg =
  Arg.(value & opt arch_conv Driver.Bitspec_arch
       & info [ "arch" ] ~docv:"ARCH" ~doc:"Target: $(b,baseline), $(b,bitspec) or $(b,thumb).")

let heuristic_arg =
  Arg.(value & opt heuristic_conv Profile.Hmax
       & info [ "heuristic" ] ~docv:"T" ~doc:"Profile heuristic: $(b,max), $(b,avg) or $(b,min).")

let no_expander_arg = Arg.(value & flag & info [ "no-expander" ])

let jobs_arg =
  Arg.(value
       & opt int (Bs_exec.Pool.default_jobs ())
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Worker domains for independent trials/runs (default: the \
                 number of cores).  Results are identical whatever $(docv).")

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"OUT"
           ~doc:"Record phase/worker spans and write them as Chrome \
                 trace-event JSON to $(docv) (load in Perfetto or \
                 chrome://tracing); a per-phase timing table is printed \
                 on exit.")

let remarks_arg =
  Arg.(value & flag
       & info [ "remarks" ]
           ~doc:"Print optimisation remarks: every variable the squeezer \
                 squeezed or rejected, every compare eliminated, every \
                 bitmask elided — with source lines.  Output is canonical \
                 (sorted), identical at any $(b,--jobs).")

(* intermittent-power options, shared by run and inject *)

let dist_conv =
  let parse s =
    match Bs_sim.Powertrace.dist_of_string s with
    | Some d -> Ok d
    | None ->
        Error
          (`Msg
             (Printf.sprintf
                "bad distribution %S: expected periodic:N, exp:N or hotpc:N"
                s))
  in
  let print ppf d =
    Format.pp_print_string ppf (Bs_sim.Powertrace.dist_to_string d)
  in
  Arg.conv (parse, print)

let policy_conv =
  let parse s =
    match Bs_sim.Checkpoint.policy_of_string s with
    | Some p -> Ok p
    | None ->
        Error
          (`Msg
             (Printf.sprintf
                "bad policy %S: expected interval:N, pre-store or pre-spec" s))
  in
  let print ppf p =
    Format.pp_print_string ppf (Bs_sim.Checkpoint.policy_name p)
  in
  Arg.conv (parse, print)

let policy_arg =
  Arg.(value & opt policy_conv (Bs_sim.Checkpoint.Interval 500)
       & info [ "policy" ] ~docv:"POLICY"
           ~doc:"Checkpoint policy: $(b,interval:N) (every N instructions), \
                 $(b,pre-store) or $(b,pre-spec).")

let retries_arg =
  Arg.(value & opt int 8
       & info [ "retries" ] ~docv:"N"
           ~doc:"Consecutive restores without an intervening checkpoint \
                 before the policy degrades to checkpoint-every-store; \
                 twice $(docv) gives up as a re-execution livelock.")

let dist_arg ~default =
  Arg.(value & opt dist_conv default
       & info [ "dist" ] ~docv:"DIST"
           ~doc:"Outage distribution: $(b,periodic:N), $(b,exp:N) (mean-N \
                 exponential gaps) or $(b,hotpc:N) (recharge N \
                 instructions, strike at the next speculative site).")

let engine_conv =
  Arg.enum
    [ ("classic", Bs_sim.Machine.Classic); ("jit", Bs_sim.Machine.Jit) ]

let engine_arg =
  Arg.(value & opt engine_conv Bs_sim.Machine.Jit
       & info [ "engine" ] ~docv:"ENGINE"
           ~doc:"Machine dispatch engine: $(b,classic) (every step \
                 through the reference step, with the hooks) or $(b,jit) \
                 (the default: hot paths fused into superblock traces, \
                 every other step through the reference step).  Both \
                 produce identical results — only host speed differs.")

let parse_args s =
  if s = "" then []
  else List.map Int64.of_string (String.split_on_char ',' s)

(* --- compile ----------------------------------------------------------- *)

let compile_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let emit_ir = Arg.(value & flag & info [ "emit-ir" ] ~doc:"print SIR") in
  let emit_asm = Arg.(value & flag & info [ "emit-asm" ] ~doc:"print disassembly") in
  let entry = Arg.(value & opt string "run" & info [ "entry" ]) in
  let train = Arg.(value & opt string "" & info [ "train" ] ~doc:"profiling args, comma-separated") in
  let action file arch heuristic emit_ir emit_asm entry train no_expander
      trace remarks =
    with_reporting ~file (fun () ->
        let source = read_file file in
        let config = Driver.config_of ~arch ~heuristic ~no_expander in
        let c =
          with_trace trace (fun () ->
              Driver.compile ~config ~source
                ~train:[ (entry, parse_args train) ] ())
        in
        if remarks then print_remarks c;
        if emit_ir then print_string (Bs_ir.Printer.module_str c.Driver.ir);
        if emit_asm then
          print_string (Bs_backend.Asm.disassemble c.Driver.program);
        if not (emit_ir || emit_asm || remarks) then
          Printf.printf "compiled %s: %d instructions, Δ = %d\n" file
            (Array.length c.Driver.program.Bs_backend.Asm.code)
            c.Driver.program.Bs_backend.Asm.delta)
  in
  Cmd.v (Cmd.info "compile" ~doc:"compile a MiniC file")
    Term.(const action $ file $ arch_arg $ heuristic_arg $ emit_ir $ emit_asm
          $ entry $ train $ no_expander_arg $ trace_arg $ remarks_arg)

(* --- run --------------------------------------------------------------- *)

let print_metrics (m : Experiment.metrics) =
  Printf.printf "result        = %Ld\n" m.Experiment.checksum;
  Printf.printf "instructions  = %d\n" m.Experiment.instrs;
  Printf.printf "cycles        = %d\n" m.Experiment.cycles;
  Printf.printf "misspecs      = %d\n" m.Experiment.misspecs;
  Printf.printf "energy        = %.1f (alu %.1f, regfile %.1f, D$ %.1f, I$ %.1f, pipe %.1f)\n"
    m.Experiment.total_energy m.Experiment.energy.Energy.alu
    m.Experiment.energy.Energy.regfile m.Experiment.energy.Energy.dcache
    m.Experiment.energy.Energy.icache m.Experiment.energy.Energy.pipeline;
  Printf.printf "EPI           = %.3f\n" m.Experiment.epi;
  Printf.printf "reg accesses  = %d x 32-bit, %d x 8-bit\n"
    m.Experiment.reg_accesses_32 m.Experiment.reg_accesses_8;
  Printf.printf "spill traffic = %d loads, %d stores, %d copies\n"
    m.Experiment.spill_loads m.Experiment.spill_stores m.Experiment.copies

let run_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let entry = Arg.(value & opt string "run" & info [ "entry" ]) in
  let args = Arg.(value & opt string "" & info [ "args" ]) in
  let train = Arg.(value & opt string "" & info [ "train" ]) in
  let why_misspec =
    Arg.(value & flag
         & info [ "why-misspec" ]
             ~doc:"Print a per-site misspeculation histogram: each \
                   misspeculation charged back to the originating \
                   variable and source line.  The total equals the \
                   simulator's misspecs counter.")
  in
  let power =
    Arg.(value & opt (some dist_conv) None
         & info [ "power" ] ~docv:"DIST"
             ~doc:"Simulate under injected power failures drawn from \
                   $(docv) ($(b,periodic:N), $(b,exp:N), $(b,hotpc:N)), \
                   with checkpoint/restore per $(b,--policy).")
  in
  let power_seed =
    Arg.(value & opt int64 1L
         & info [ "power-seed" ] ~docv:"S"
             ~doc:"Seed of the outage trace (with $(b,--power)).")
  in
  let stats =
    Arg.(value & flag
         & info [ "stats" ]
             ~doc:"Print the raw activity-counter dump, each cache's hits \
                   and misses, and the host-side simulation rate \
                   ($(b,simulated_mips), simulated instructions per host \
                   microsecond).")
  in
  let action file arch heuristic entry args train no_expander trace why
      power power_seed policy retries engine stats =
    with_reporting ~file (fun () ->
        let source = read_file file in
        let config = Driver.config_of ~arch ~heuristic ~no_expander in
        let train_args =
          if train = "" then parse_args args else parse_args train
        in
        with_trace trace @@ fun () ->
        let c =
          Driver.compile ~config ~source ~train:[ (entry, train_args) ] ()
        in
        let pw =
          Option.map
            (fun dist ->
              let trace =
                Bs_sim.Powertrace.create ~seed:power_seed
                  ~hot_pcs:(Campaign.hot_pcs_of c.Driver.program) dist
              in
              { Bs_sim.Machine.trace; policy; max_retries = retries })
            power
        in
        let r =
          Driver.run_machine ?power:pw ~engine c ~entry
            ~args:(parse_args args)
        in
        print_metrics (Experiment.metrics_of_run r);
        if stats then begin
          let ctr = r.Bs_sim.Machine.ctr in
          List.iter
            (fun (k, v) -> Printf.printf "%-18s = %d\n" k v)
            (Bs_sim.Counters.to_assoc ctr);
          List.iter
            (fun (c : Bs_sim.Cache.t) ->
              Printf.printf "%-18s = %d hits, %d misses\n" c.Bs_sim.Cache.name
                c.Bs_sim.Cache.hits c.Bs_sim.Cache.misses)
            [ r.Bs_sim.Machine.icache; r.Bs_sim.Machine.dcache;
              r.Bs_sim.Machine.l2 ];
          Printf.printf "%-18s = %.2f\n" "simulated_mips"
            (Bs_sim.Counters.simulated_mips ctr)
        end;
        (match pw with
        | None -> ()
        | Some _ ->
            let ctr = r.Bs_sim.Machine.ctr in
            let b = Energy.of_result r in
            Printf.printf "outcome       = %s\n"
              (Outcome.to_string r.Bs_sim.Machine.outcome);
            Printf.printf
              "power         = %d restores, %d checkpoints (%d bytes), %d \
               re-executed instrs\n"
              ctr.Bs_sim.Counters.restores ctr.Bs_sim.Counters.checkpoints
              ctr.Bs_sim.Counters.checkpoint_bytes
              ctr.Bs_sim.Counters.reexec_instrs;
            Printf.printf
              "power energy  = %.1f checkpointing + %.1f re-execution \
               (run total %.1f)\n"
              (Energy.checkpoint_energy ctr)
              (Energy.reexec_energy b ctr)
              (Energy.total_intermittent b ctr));
        if why then
          Format.printf "%a" Experiment.pp_misspec_sites
            (Experiment.misspec_sites c r))
  in
  Cmd.v (Cmd.info "run" ~doc:"compile and simulate a MiniC file")
    Term.(const action $ file $ arch_arg $ heuristic_arg $ entry $ args
          $ train $ no_expander_arg $ trace_arg $ why_misspec
          $ power $ power_seed $ policy_arg $ retries_arg $ engine_arg
          $ stats)

(* --- bench ------------------------------------------------------------- *)

let bench_cmd =
  let wname = Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD") in
  let relative = Arg.(value & flag & info [ "relative" ] ~doc:"also print values relative to BASELINE") in
  let why_misspec =
    Arg.(value & flag
         & info [ "why-misspec" ]
             ~doc:"Print a per-site misspeculation histogram for the test \
                   input: each misspeculation charged back to the \
                   originating variable and source line.")
  in
  let action wname arch heuristic no_expander relative jobs trace remarks
      why =
    with_reporting (fun () ->
        let w = Registry.find wname in
        let config = Driver.config_of ~arch ~heuristic ~no_expander in
        with_trace trace @@ fun () ->
        (* the configured run and the baseline comparison are independent;
           a pool overlaps them (printing stays sequential) *)
        let runs =
          if relative then
            Bs_exec.Pool.map ~jobs
              (fun cfg -> Experiment.run cfg w)
              [| config; Driver.baseline_config |]
          else [| Experiment.run config w |]
        in
        let m = runs.(0) in
        print_metrics m;
        let expect = Experiment.reference_checksum w in
        Printf.printf "reference     = %Ld (%s)\n" expect
          (if expect = m.Experiment.checksum then "MATCH" else "MISMATCH");
        if relative then begin
          let b = runs.(1) in
          Printf.printf "vs BASELINE   : energy %.3f, instrs %.3f, EPI %.3f\n"
            (m.Experiment.total_energy /. b.Experiment.total_energy)
            (float_of_int m.Experiment.instrs /. float_of_int b.Experiment.instrs)
            (m.Experiment.epi /. b.Experiment.epi)
        end;
        if remarks || why then begin
          (* the compile and the simulation the run above measured, from
             the compile cache and the test-run memo *)
          let c, r = Experiment.run_test config w in
          if remarks then print_remarks c;
          if why then
            Format.printf "%a" Experiment.pp_misspec_sites
              (Experiment.misspec_sites c r)
        end)
  in
  Cmd.v (Cmd.info "bench" ~doc:"run a built-in workload")
    Term.(const action $ wname $ arch_arg $ heuristic_arg $ no_expander_arg
          $ relative $ jobs_arg $ trace_arg $ remarks_arg $ why_misspec)

(* --- inject ------------------------------------------------------------ *)

let inject_cmd =
  let wname = Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD") in
  let trials =
    Arg.(value & opt int 100
         & info [ "trials" ] ~docv:"N" ~doc:"Number of injection trials.")
  in
  let seed =
    Arg.(value & opt int64 1L
         & info [ "seed" ] ~docv:"S"
             ~doc:"Campaign seed; a fixed seed reproduces the exact same \
                   faults and verdicts.")
  in
  let max_examples =
    Arg.(value & opt int 8
         & info [ "max-examples" ] ~docv:"K"
             ~doc:"Detected-fault examples to list.")
  in
  let model =
    Arg.(value
         & opt (enum [ ("bitflip", `Bitflip); ("power", `Power) ]) `Bitflip
         & info [ "model" ] ~docv:"MODEL"
             ~doc:"Fault model: $(b,bitflip) (single-bit soft errors, the \
                   default) or $(b,power) (power failures with \
                   checkpoint/restore; see $(b,--dist), $(b,--policy), \
                   $(b,--retries)).")
  in
  let strict =
    Arg.(value & flag
         & info [ "strict" ]
             ~doc:"Exit with status 3 if any trial ends in silent data \
                   corruption (a wrong checksum).")
  in
  let validate =
    Arg.(value & flag
         & info [ "validate" ]
             ~doc:"Register-bit flips only: print the per-bit \
                   predicted-vs-measured table (static bit-level \
                   vulnerability analysis against the measured campaign) \
                   instead of the verdict summary.  Implies \
                   $(b,--model bitflip).")
  in
  let action wname arch heuristic no_expander trials seed max_examples jobs
      model dist policy retries strict validate =
    with_reporting (fun () ->
        let w = Registry.find wname in
        let config = Driver.config_of ~arch ~heuristic ~no_expander in
        let sdc =
          match model with
          | `Power ->
              let t =
                Campaign.run_power ~jobs ~config ~policy ~retries ~dist
                  ~trials ~seed w
              in
              print_string (Campaign.power_report t);
              List.exists
                (fun (tr : Campaign.power_trial) ->
                  match tr.Campaign.pt_verdict with
                  | Campaign.P_sdc _ -> true
                  | _ -> false)
                t.Campaign.p_trials
          | `Bitflip when validate ->
              let v = Campaign.validate ~jobs ~config ~trials ~seed w in
              print_string (Campaign.validation_report v);
              Array.exists
                (fun (row : Campaign.bit_row) -> row.Campaign.v_corrupt > 0)
                v.Campaign.v_rows
          | `Bitflip ->
              let campaign = Campaign.run ~jobs ~config ~trials ~seed w in
              print_string (Campaign.report ~max_examples campaign);
              let s = Bs_sim.Faultinject.summarize campaign.Campaign.trials in
              s.Bs_sim.Faultinject.sdc > 0
        in
        if strict && sdc then exit 3)
  in
  Cmd.v
    (Cmd.info "inject"
       ~doc:"run a seeded fault-injection campaign on a built-in workload"
       ~exits:
         (Cmd.Exit.info 3
            ~doc:"silent data corruption observed (with $(b,--strict))"
          :: Cmd.Exit.defaults))
    Term.(const action $ wname $ arch_arg $ heuristic_arg $ no_expander_arg
          $ trials $ seed $ max_examples $ jobs_arg $ model
          $ dist_arg ~default:(Bs_sim.Powertrace.Exponential 2000.0)
          $ policy_arg $ retries_arg $ strict $ validate)

(* --- fuzz -------------------------------------------------------------- *)

let fault_conv =
  let parse s =
    match Bs_fuzz.Corpus.fault_of_string s with
    | Some f -> Ok f
    | None ->
        Error
          (`Msg
             (Printf.sprintf
                "bad fault %S: expected squeeze:FUNC, regalloc:FUNC or \
                 miscompile:FUNC"
                s))
  in
  let print ppf f = Format.pp_print_string ppf (Bs_fuzz.Corpus.fault_to_string f) in
  Arg.conv (parse, print)

let fault_arg =
  Arg.(value & opt (some fault_conv) None
       & info [ "fault" ] ~docv:"PASS:FUNC"
           ~doc:"Plant a compiler fault ($(b,squeeze), $(b,regalloc) or \
                 $(b,miscompile)) into every compile — the oracle's \
                 self-test.")

let fuzz_cmd =
  let seed =
    Arg.(value & opt int 1
         & info [ "seed" ] ~docv:"N"
             ~doc:"Campaign seed; equal seeds yield bit-identical campaigns.")
  in
  let trials =
    Arg.(value & opt int 200
         & info [ "trials" ] ~docv:"K" ~doc:"Number of random programs.")
  in
  let budget =
    Arg.(value & opt (some float) None
         & info [ "budget" ] ~docv:"SECS"
             ~doc:"Stop starting new trials after SECS seconds of CPU time.")
  in
  let corpus =
    Arg.(value & opt string "test/corpus"
         & info [ "corpus" ] ~docv:"DIR"
             ~doc:"Directory minimized reproducers are written to.")
  in
  let size =
    Arg.(value & opt int 10
         & info [ "size" ] ~docv:"S" ~doc:"Statement budget per program.")
  in
  let no_reduce =
    Arg.(value & flag
         & info [ "no-reduce" ] ~doc:"Keep crashers as generated (faster).")
  in
  let expect_crash =
    Arg.(value & flag
         & info [ "expect-crash" ]
             ~doc:"Invert the exit status: fail when NO crash is found \
                   (planted-fault self-tests).")
  in
  let action seed trials budget corpus size no_reduce fault expect_crash jobs
      engine =
    with_reporting (fun () ->
        let t =
          Bs_fuzz.Fuzz.run ?plant:fault ?budget ~reduce:(not no_reduce)
            ~size ~jobs ~engine ~seed ~trials ()
        in
        print_string (Bs_fuzz.Fuzz.report t);
        if t.Bs_fuzz.Fuzz.crashes <> [] then begin
          let paths = Bs_fuzz.Fuzz.save_corpus ~dir:corpus t in
          List.iter (Printf.printf "wrote %s\n") paths
        end;
        let crashed = t.Bs_fuzz.Fuzz.crashes <> [] in
        if crashed <> expect_crash then exit 1)
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"differential fuzzing campaign: random programs, every build \
             configuration against the reference interpreter")
    Term.(const action $ seed $ trials $ budget $ corpus $ size $ no_reduce
          $ fault_arg $ expect_crash $ jobs_arg $ engine_arg)

(* --- reduce ------------------------------------------------------------ *)

let reduce_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let check =
    Arg.(value & flag
         & info [ "check" ]
             ~doc:"Only replay the oracle and print the bucket; don't \
                   reduce.  Exits non-zero if a header's recorded bucket \
                   fails to reproduce.")
  in
  let entry =
    Arg.(value & opt (some string) None
         & info [ "entry" ] ~docv:"F" ~doc:"Entry point (default: header, else f).")
  in
  let args_opt =
    Arg.(value & opt (some string) None
         & info [ "args" ] ~docv:"A,B" ~doc:"Run arguments (default: header, else 17).")
  in
  let train_opt =
    Arg.(value & opt (some string) None
         & info [ "train" ] ~docv:"A,B" ~doc:"Profiling arguments (default: header, else 17).")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"OUT"
             ~doc:"Where to write the minimized reproducer (default: \
                   FILE with a .min.mc suffix).")
  in
  let action file check entry args_opt train_opt fault out engine =
    with_reporting ~file (fun () ->
        let header, source = Bs_fuzz.Corpus.load file in
        let dfl f d = match header with Some m -> f m | None -> d in
        let pick flag f d = match flag with Some v -> v | None -> dfl f d in
        (* the header's replay settings, each overridden by its flag *)
        let entry = pick entry (fun m -> m.Bs_fuzz.Corpus.entry) "f" in
        let args =
          pick (Option.map parse_args args_opt)
            (fun m -> m.Bs_fuzz.Corpus.args) [ 17L ]
        in
        let train =
          pick (Option.map parse_args train_opt)
            (fun m -> m.Bs_fuzz.Corpus.train) [ 17L ]
        in
        let power = dfl (fun m -> m.Bs_fuzz.Corpus.power) None in
        (* a planted fault applies only to an oracle replay *)
        let fault =
          if power <> None then None
          else if fault <> None then fault
          else dfl (fun m -> m.Bs_fuzz.Corpus.fault) None
        in
        (* a replay does not read the bucket key *)
        let meta =
          { Bs_fuzz.Corpus.bucket_key = ""; entry; args; train; fault; power }
        in
        let replay s = Bs_fuzz.Oracle.replay ~engine meta s in
        let key, description = replay source in
        print_endline description;
        (match header with
        | Some m when Some m.Bs_fuzz.Corpus.bucket_key <> key ->
            Printf.printf "recorded bucket %s did NOT reproduce\n"
              m.Bs_fuzz.Corpus.bucket_key;
            exit 1
        | Some _ -> print_endline "recorded bucket reproduced"
        | None -> ());
        match key with
        | Some key when not check ->
            let reduced =
              Bs_fuzz.Reduce.run ~pred:(fun s -> fst (replay s) = Some key)
                source
            in
            let out =
              match out with
              | Some o -> o
              | None -> Filename.remove_extension file ^ ".min.mc"
            in
            let m = { meta with Bs_fuzz.Corpus.bucket_key = key } in
            let path =
              Bs_fuzz.Corpus.save ~dir:(Filename.dirname out)
                ~name:(Filename.basename out) m reduced
            in
            Printf.printf "minimized to %d lines: %s\nreplay: %s\n"
              (Bs_fuzz.Reduce.line_count reduced) path
              (Bs_fuzz.Corpus.replay_command ~file:path m)
        | _ -> ())
  in
  Cmd.v
    (Cmd.info "reduce"
       ~doc:"replay the differential oracle on a MiniC file and \
             delta-debug it to a minimal reproducer")
    Term.(const action $ file $ check $ entry $ args_opt $ train_opt
          $ fault_arg $ out $ engine_arg)

(* --- serve / client / loadgen ------------------------------------------ *)

let socket_doc = "Unix-domain socket $(docv) of the compile server."

let socket_req_arg =
  Arg.(required & opt (some string) None
       & info [ "socket" ] ~docv:"PATH" ~doc:socket_doc)

let socket_opt_arg =
  Arg.(value & opt (some string) None
       & info [ "socket" ] ~docv:"PATH"
           ~doc:(socket_doc ^ "  Without it, $(b,serve) speaks the same \
                  newline-delimited JSON over stdin/stdout."))

let unix_fail path f =
  try f ()
  with Unix.Unix_error (e, _, _) ->
    failwith (path ^ ": " ^ Unix.error_message e)

let serve_cmd =
  let queue_depth =
    Arg.(value & opt int Server.default_config.Server.queue_depth
         & info [ "queue-depth" ] ~docv:"N"
             ~doc:"Admission high-water mark: requests beyond $(docv) \
                   queued are shed with a structured $(b,overloaded) \
                   response instead of queueing without bound.")
  in
  let deadline =
    Arg.(value & opt int Server.default_config.Server.deadline_ms
         & info [ "deadline-ms" ] ~docv:"MS"
             ~doc:"Default per-request deadline (0 = none), checked when a \
                   worker takes the request off the queue: a request that \
                   waited past it is answered $(b,timeout) without being \
                   compiled.  A started request runs to completion.")
  in
  let fuel =
    Arg.(value & opt int Server.default_config.Server.fuel
         & info [ "fuel" ] ~docv:"N"
             ~doc:"Default simulation instruction budget per request: a \
                   run needing more than $(docv) instructions is answered \
                   with the fuel diagnostic.")
  in
  let cache_dir =
    Arg.(value & opt (some string) None
         & info [ "cache-dir" ] ~docv:"DIR"
             ~doc:"Persist compiled workloads to a crash-safe \
                   content-addressed store under $(docv); a restarted \
                   server serves them back without recompiling.  Corrupt \
                   entries are quarantined and recompiled, never trusted.")
  in
  let metrics_out =
    Arg.(value & opt (some string) None
         & info [ "metrics-out" ] ~docv:"FILE"
             ~doc:"Write a Prometheus text exposition of the metrics \
                   registry to $(docv) on shutdown, and again on every \
                   SIGUSR1 (with a log line on stderr) while serving.")
  in
  let trace_out =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Record request-scoped spans and flow events while \
                   serving and write Chrome trace-event JSON to $(docv) \
                   on shutdown.  The span buffer is bounded; overflow is \
                   counted in the $(b,trace_dropped_events) metric.")
  in
  let action socket jobs queue_depth deadline_ms fuel cache_dir metrics_out
      trace_out =
    with_reporting (fun () ->
        let cfg = { Server.jobs; queue_depth; deadline_ms; fuel; cache_dir } in
        let write_metrics path =
          let oc = open_out path in
          output_string oc (Bs_obs.Metrics.prometheus ());
          close_out oc
        in
        (match metrics_out with
        | Some path ->
            ignore
              (Sys.signal Sys.sigusr1
                 (Sys.Signal_handle
                    (fun _ ->
                      write_metrics path;
                      Printf.eprintf "bitspecc: metrics snapshot -> %s\n%!"
                        path)))
        | None -> ());
        if Option.is_some trace_out then Bs_obs.Trace.enable ();
        let t = Server.start cfg in
        let finish () =
          (match metrics_out with
          | Some path -> write_metrics path
          | None -> ());
          match trace_out with
          | Some path ->
              Bs_obs.Trace.disable ();
              Bs_obs.Trace.write_chrome path
          | None -> ()
        in
        Fun.protect ~finally:finish (fun () ->
            match socket with
            | Some path ->
                unix_fail path (fun () ->
                    Server.serve_unix t ~socket:path
                      ~on_ready:(fun () ->
                        Printf.eprintf
                          "bitspecc: serving on %s (%d workers)\n%!"
                          path jobs)
                      ())
            | None -> Server.serve_channel t stdin stdout))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"run the compile service: worker domains answering bench \
             requests through the experiment pipeline's compile cache and \
             memoised simulations, with admission deadlines, fuel and \
             bounded-queue load shedding")
    Term.(const action $ socket_opt_arg $ jobs_arg $ queue_depth
          $ deadline $ fuel $ cache_dir $ metrics_out $ trace_out)

let chaos_conv =
  let parse s =
    match Service.chaos_of_string s with
    | Some c -> Ok c
    | None ->
        Error
          (`Msg (Printf.sprintf "bad chaos %S: expected crash or hang:MS" s))
  in
  let print ppf c = Format.pp_print_string ppf (Service.chaos_to_string c) in
  Arg.conv (parse, print)

let client_cmd =
  let op =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"OP"
             ~doc:"$(b,ping), $(b,stats), $(b,health), $(b,shutdown) or \
                   $(b,bench) (which takes a WORKLOAD).")
  in
  let wname =
    Arg.(value & pos 1 (some string) None & info [] ~docv:"WORKLOAD")
  in
  let id = Arg.(value & opt int 1 & info [ "id" ] ~docv:"N") in
  let deadline =
    Arg.(value & opt (some int) None
         & info [ "deadline-ms" ] ~docv:"MS"
             ~doc:"Override the server's default deadline.")
  in
  let fuel = Arg.(value & opt (some int) None & info [ "fuel" ] ~docv:"N") in
  let chaos =
    Arg.(value & opt (some chaos_conv) None
         & info [ "chaos" ] ~docv:"KNOB"
             ~doc:"Inject worker misbehaviour: $(b,crash) (the worker \
                   raises; the request fails with BS-SRV-03) or \
                   $(b,hang:MS) (the worker stays busy for MS \
                   milliseconds before running the request).")
  in
  let action socket op wname arch heuristic no_expander id deadline fuel
      chaos =
    with_reporting (fun () ->
        let rq_op =
          match op with
          | "ping" -> Service.Ping
          | "stats" -> Service.Stats
          | "health" -> Service.Health
          | "shutdown" -> Service.Shutdown
          | "bench" -> (
              match wname with
              | Some w ->
                  Service.Bench
                    { Service.b_workload = w; b_arch = arch;
                      b_heuristic = heuristic; b_no_expander = no_expander }
              | None -> failwith "bench needs a WORKLOAD argument")
          | s -> failwith (Printf.sprintf "unknown op %S" s)
        in
        let rq =
          { Service.rq_id = id; rq_op; rq_deadline_ms = deadline;
            rq_fuel = fuel; rq_chaos = chaos }
        in
        let conn = unix_fail socket (fun () -> Server.connect ~socket) in
        let rs =
          Fun.protect ~finally:(fun () -> Server.close conn) (fun () ->
              Server.call conn rq)
        in
        print_endline (Service.response_line rs);
        match rs.Service.rs_status with
        | Service.Done _ | Service.Pong | Service.Stats_reply _
        | Service.Health_reply _ | Service.Bye -> ()
        | Service.Failed _ -> exit 1
        | Service.Overloaded _ -> exit 4
        | Service.Timed_out -> exit 5)
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"send one request to a running compile server"
       ~exits:
         (Cmd.Exit.info 4 ~doc:"the server shed the request (overloaded)"
          :: Cmd.Exit.info 5 ~doc:"the request's deadline passed (timeout)"
          :: Cmd.Exit.defaults))
    Term.(const action $ socket_req_arg $ op $ wname $ arch_arg
          $ heuristic_arg $ no_expander_arg $ id $ deadline $ fuel $ chaos)

let loadgen_cmd =
  let seed =
    Arg.(value & opt int64 Loadgen.default_cfg.Loadgen.lg_seed
         & info [ "seed" ] ~docv:"S"
             ~doc:"Stream seed; equal seeds produce the identical \
                   request sequence whatever $(b,--clients).")
  in
  let requests =
    Arg.(value & opt int Loadgen.default_cfg.Loadgen.lg_requests
         & info [ "requests" ] ~docv:"N")
  in
  let clients =
    Arg.(value & opt int Loadgen.default_cfg.Loadgen.lg_clients
         & info [ "clients" ] ~docv:"N"
             ~doc:"Closed-loop client threads (each on its own \
                   connection).")
  in
  let zipf =
    Arg.(value & opt float Loadgen.default_cfg.Loadgen.lg_zipf_s
         & info [ "zipf" ] ~docv:"S"
             ~doc:"Zipf exponent of the workload/config popularity \
                   distribution.")
  in
  let deadline =
    Arg.(value & opt (some int) None & info [ "deadline-ms" ] ~docv:"MS")
  in
  let fuel = Arg.(value & opt (some int) None & info [ "fuel" ] ~docv:"N") in
  let crash_every =
    Arg.(value & opt int 0
         & info [ "crash-every" ] ~docv:"N"
             ~doc:"Inject a $(b,crash) chaos knob on every $(docv)-th \
                   request (0 = never); each such request fails with \
                   BS-SRV-03, exercising the workers' exception \
                   isolation.")
  in
  let log =
    Arg.(value & opt (some string) None
         & info [ "log" ] ~docv:"FILE"
             ~doc:"Write the canonical per-request log (sorted by id; \
                   byte-identical at any server $(b,--jobs)) to $(docv).")
  in
  let check_server =
    Arg.(value & flag
         & info [ "check-server" ]
             ~doc:"After the run, fetch the server's stats snapshot and \
                   reconcile its latency histogram against the \
                   client-side measurements: counts must match exactly, \
                   p50/p99 within one histogram bucket; both views and \
                   the verdict are printed.  Only sound against a server \
                   that has served exactly this run's requests.  Exits \
                   nonzero on mismatch.")
  in
  let action socket seed requests clients zipf deadline fuel crash_every log
      check_server =
    with_reporting (fun () ->
        let cfg =
          { Loadgen.lg_seed = seed; lg_requests = requests;
            lg_clients = clients; lg_zipf_s = zipf;
            lg_deadline_ms = deadline; lg_fuel = fuel;
            lg_crash_every = crash_every }
        in
        let pairs, s =
          unix_fail socket (fun () ->
              Loadgen.run cfg (Loadgen.Connect socket))
        in
        Printf.printf "requests       = %d (%d clients, zipf %.2f, seed %Ld)\n"
          s.Loadgen.sm_requests clients zipf seed;
        Printf.printf "ok/err/timeout = %d / %d / %d   shed = %d\n"
          s.Loadgen.sm_ok s.Loadgen.sm_errors s.Loadgen.sm_timeouts
          s.Loadgen.sm_shed;
        Printf.printf "throughput     = %.1f req/s (%.2f s wall)\n"
          s.Loadgen.sm_rps s.Loadgen.sm_wall_s;
        Printf.printf "p50 / p99      = %.2f / %.2f ms\n" s.Loadgen.sm_p50_ms
          s.Loadgen.sm_p99_ms;
        Printf.printf "cache hit rate = %.3f\n" s.Loadgen.sm_hit_rate;
        Printf.printf "shed rate      = %.3f\n" s.Loadgen.sm_shed_rate;
        let check =
          if not check_server then None
          else
            match Loadgen.server_stats (Loadgen.Connect socket) with
            | None -> failwith "cross-check: could not fetch server stats"
            | Some st ->
                let c = Loadgen.cross_check pairs st in
                Printf.printf
                  "server count   = %d (client %d) %s\n"
                  c.Loadgen.cc_server_count c.Loadgen.cc_client_count
                  (if c.Loadgen.cc_count_ok then "[exact]" else "[MISMATCH]");
                Printf.printf
                  "server p50/p99 = %.2f / %.2f ms (client %.2f / %.2f) %s\n"
                  c.Loadgen.cc_server_p50 c.Loadgen.cc_server_p99
                  c.Loadgen.cc_client_p50 c.Loadgen.cc_client_p99
                  (if c.Loadgen.cc_p50_ok && c.Loadgen.cc_p99_ok then
                     "[within bucket]"
                   else "[MISMATCH]");
                Some c
        in
        (match check with
        | Some c when not c.Loadgen.cc_ok ->
            failwith "cross-check: server and client views disagree"
        | _ -> ());
        match log with
        | Some path ->
            let oc = open_out path in
            List.iter
              (fun l ->
                output_string oc l;
                output_char oc '\n')
              (Loadgen.canonical_log pairs);
            close_out oc;
            Printf.printf "canonical log written to %s\n" path
        | None -> ())
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:"drive a running compile server with a seeded zipfian \
             closed-loop load and report throughput, latency \
             percentiles, cache hit rate and shed rate")
    Term.(const action $ socket_req_arg $ seed $ requests
          $ clients $ zipf $ deadline $ fuel $ crash_every $ log
          $ check_server)

(* --- list -------------------------------------------------------------- *)

let list_cmd =
  let action () =
    List.iter
      (fun (w : Workload.t) ->
        Printf.printf "%-18s %s\n" w.name w.description)
      Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"list built-in workloads") Term.(const action $ const ())

let () =
  let doc = "the BITSPEC compiler and architecture simulator" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "bitspecc" ~doc)
          [ compile_cmd; run_cmd; bench_cmd; inject_cmd; fuzz_cmd;
            reduce_cmd; serve_cmd; client_cmd; loadgen_cmd; list_cmd ]))
