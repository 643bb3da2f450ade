(* The experiment harness: regenerates every table and figure of the
   paper's evaluation (§4).  Each section prints the same rows/series the
   paper reports, computed from the activity counters of the simulated
   machine.

   Usage:
     dune exec bench/main.exe                  # everything
     dune exec bench/main.exe fig8 table2      # selected sections
     dune exec bench/main.exe -- --jobs 4      # size of the domain pool

   The sections whose unit of work is one experiment cell (a kernel, a
   build configuration and a profiling input) are declared in {!Paper},
   which checks every cell's checksum against the reference interpreter;
   the rest (fig1, fig3, fig5, tune, fig16, fig17, harvest, vuln) compute
   custom rows here.  Each section computes its units of work over a
   domain pool and then prints them in order, so the printed bytes are
   identical whatever the job count.  All compilations go through the
   content-addressed {!Compile_cache}.

   An unknown section or a bad job count exits 2 before any work; a
   checksum mismatch exits 1, naming the cell, before its section
   prints.  At exit the run's phase-time table ({!Bs_obs.Trace} spans)
   goes to stderr.

   Absolute energy is in model units; every figure reports values relative
   to BASELINE exactly as the paper does.  EXPERIMENTS.md records the
   paper-vs-measured comparison per section. *)

open Bitspec
open Bs_workloads
open Bs_interp
open Bs_energy

let benches = Registry.all
let jobs = ref (Bs_exec.Pool.default_jobs ())

(* A section's units of work, computed over the domain pool and returned
   in order for the section to print. *)
let par f l = Bs_exec.Pool.map_list ~jobs:!jobs f l

let header title = Printf.printf "\n=== %s ===\n%!" title

let row_header cols =
  Printf.printf "%-18s" "benchmark";
  List.iter (fun c -> Printf.printf " %12s" c) cols;
  print_newline ()

(* ---------------------------------------------------------------------- *)
(* Figure 1: bitwidth selection techniques                                  *)
(* ---------------------------------------------------------------------- *)

let profile1_tbl = Bs_exec.Memo.create ()

let profile_for_fig1 (w : Workload.t) =
  (* IR-level study: profile the expanded module on the test input.
     Memoised — fig1 and fig5 share the same profiling run. *)
  Bs_exec.Memo.find_or_add profile1_tbl w.name (fun () ->
      let m = Bs_frontend.Lower.compile w.source in
      ignore (Expander.run m Expander.default);
      let profile = Profile.create () in
      let opts = { Interp.default_opts with profile = Some profile } in
      ignore
        (Interp.run_fresh ~opts ~setup:(w.test.Workload.setup m) m
           ~entry:w.entry ~args:w.test.Workload.args);
      (m, profile))

let dist name (d : float array) =
  if Array.length d <> 4 then ""
  else
    Printf.sprintf "%-20s %8.1f%% %8.1f%% %8.1f%% %8.1f%%\n" name
      (100. *. d.(0)) (100. *. d.(1)) (100. *. d.(2)) (100. *. d.(3))

let columns_line (w : Workload.t) =
  Printf.sprintf "-- %s (columns: 8 / 16 / 32 / 64 bits)\n" w.name

let fig1 () =
  let blocks =
    par
      (fun (w : Workload.t) ->
        let m, profile = profile_for_fig1 w in
        let db = Bs_analysis.Demanded_bits.module_selection m in
        let bc = Bs_analysis.Block_coerce.selection m profile in
        String.concat ""
          [ columns_line w;
            dist "  (a) required" (Profile.required_distribution profile);
            dist "  (b) programmer" (Profile.programmer_distribution profile);
            dist "  (c) demanded-bits"
              (Profile.selection_distribution profile ~select:db);
            dist "  (d) block-coerced"
              (Profile.selection_distribution profile ~select:bc) ])
      benches
  in
  header "Figure 1: dynamic IR integer instructions by bitwidth selection";
  List.iter print_string blocks

(* ---------------------------------------------------------------------- *)
(* Figure 3: loop unrolling IR vs assembly instructions                     *)
(* ---------------------------------------------------------------------- *)

let fig3_src =
    (* eight live accumulators with cross-dependencies: unrolled copies
       multiply the simultaneously-live temporaries, pressuring the
       register file exactly as §2.5 describes *)
    "u32 acc[64];\n\
     u32 f(u32 n) {\n\
     u32 s0 = 0; u32 s1 = 1; u32 s2 = 2; u32 s3 = 3;\n\
     u32 s4 = 4; u32 s5 = 5; u32 s6 = 6; u32 s7 = 7;\n\
     u32 s8 = 8; u32 s9 = 9; u32 sa = 10; u32 sb = 11;\n\
     for (u32 i = 0; i < n; i += 1) {\n\
     u32 t = acc[i & 63];\n\
     s0 = (s0 + t) & 0xFFFF; s1 = (s1 ^ s0) + i; s2 = (s2 + s1) & 0xFFFF;\n\
     s3 = s3 ^ (s2 >> 1); s4 = (s4 + s3) & 0xFFFF; s5 = s5 ^ (s4 + t);\n\
     s6 = (s6 + s5) & 0xFFFF; s7 = s7 ^ (s6 + i); s8 = (s8 + s7) & 0xFFFF;\n\
     s9 = s9 ^ (s8 + t); sa = (sa + s9) & 0xFFFF; sb = sb ^ (sa >> 2);\n\
     acc[i & 63] = sb;\n\
     }\n\
     return s0 ^ s1 ^ s2 ^ s3 ^ s4 ^ s5 ^ s6 ^ s7 ^ s8 ^ s9 ^ sa ^ sb; }"

let fig3_row factor =
  let expander =
    { Expander.unroll_factor = factor; max_fn_size = 2000;
      max_loop_size = 3000 }
  in
  let m = Bs_frontend.Lower.compile fig3_src in
  ignore (Expander.run m expander);
  let r, _ = Interp.run_fresh m ~entry:"f" ~args:[ 3000L ] in
  let cfg = { Driver.baseline_config with expander } in
  let c =
    Compile_cache.compile
      ~key:
        (Printf.sprintf "fig3|%s|%s|f@100"
           (Compile_cache.source_key fig3_src)
           (Driver.config_tag cfg))
      (fun () ->
        Driver.compile ~config:cfg ~source:fig3_src
          ~train:[ ("f", [ 100L ]) ] ())
  in
  let mr = Driver.run_machine c ~entry:"f" ~args:[ 3000L ] in
  Printf.sprintf "%-8d %14d %14d\n" factor r.Interp.steps
    mr.Bs_sim.Machine.ctr.Bs_sim.Counters.instrs

let fig3 () =
  let rows = par fig3_row [ 1; 2; 4; 8; 16 ] in
  header "Figure 3: unrolling factor vs dynamic IR and assembly instructions";
  Printf.printf "%-8s %14s %14s\n" "factor" "IR instrs" "asm instrs";
  List.iter print_string rows

(* ---------------------------------------------------------------------- *)
(* Figure 5: profiler classification under T = MAX / AVG / MIN              *)
(* ---------------------------------------------------------------------- *)

let fig5 () =
  let blocks =
    par
      (fun (w : Workload.t) ->
        let _, profile = profile_for_fig1 w in
        String.concat ""
          (columns_line w
          :: List.map
               (fun h ->
                 dist
                   ("  T=" ^ Profile.heuristic_name h)
                   (Profile.heuristic_distribution profile h))
               [ Profile.Hmax; Profile.Havg; Profile.Hmin ]))
      benches
  in
  header "Figure 5: profiler bitwidth classes under each heuristic";
  List.iter print_string blocks

(* ---------------------------------------------------------------------- *)
(* The sections of {!Paper}: measure every cell, then print the rows       *)
(* ---------------------------------------------------------------------- *)

let paper_section (s : Paper.section) () =
  let cells = List.map s.Paper.cells s.Paper.kernels in
  ignore (par Paper.measure (List.concat cells));
  let rows =
    List.map
      (fun cs -> s.Paper.row (Array.of_list (List.map Paper.measure cs)))
      cells
  in
  header s.Paper.title;
  row_header s.Paper.columns;
  List.iter2
    (fun k vals ->
      Printf.printf "%-18s" k;
      List.iter
        (function
          | Paper.Ratio x -> Printf.printf " %12.3f" x
          | Paper.Count n -> Printf.printf " %12d" n)
        vals;
      print_newline ())
    s.Paper.kernels rows;
  print_string (s.Paper.footer rows)

(* ---------------------------------------------------------------------- *)
(* Autotuning the expander (§3.2.1's offline search)                        *)
(* ---------------------------------------------------------------------- *)

let tune_row name =
  let w = Registry.find name in
  let compile () = Bs_frontend.Lower.compile w.Workload.source in
  let measure m =
    let r, _ =
      Interp.run_fresh ~setup:(w.Workload.train.Workload.setup m) m
        ~entry:w.entry ~args:w.Workload.train.Workload.args
    in
    r.Interp.steps
  in
  let best = Expander.autotune ~compile ~measure in
  let m = compile () in
  ignore (Expander.run m best);
  Printf.sprintf "%-18s %8d %10d %10d %14d\n" w.name
    best.Expander.unroll_factor best.Expander.max_fn_size
    best.Expander.max_loop_size (measure m)

let tune () =
  let rows = par tune_row [ "CRC32"; "bitcount"; "sha" ] in
  header
    "Expander autotuning: grid search minimising BASELINE dynamic IR \
     instructions (the paper's 10-day OpenTuner run, reduced to a grid)";
  Printf.printf "%-18s %8s %10s %10s %14s\n" "benchmark" "unroll" "max-fn"
    "max-loop" "IR instrs";
  List.iter print_string rows

(* ---------------------------------------------------------------------- *)
(* Figure 16 (RQ6 deep dive): susan-edges image-pair study                  *)
(* ---------------------------------------------------------------------- *)

let fig16_row h =
  let w = Registry.find "susan-edges" in
  let n_images = 8 in
  let image i =
    Susan.gen_input
      ~seed:(Int64.of_int (900 + i))
      ~range:(100 + (18 * i))
      ~threshold:20
  in
  let cfg = { Driver.bitspec_config with heuristic = h } in
  (* compile once per profile image (tagged, so the cache can address
     the anonymous image closures); measure each on every run image *)
  let compiled =
    Array.init n_images (fun i ->
        Experiment.compile_workload ~profile_input:(image i)
          ~profile_tag:(Printf.sprintf "fig16-img%d" i) cfg w)
  in
  (* one run per (profile, run) pair; the diagonal doubles as the
     self-profiled reference, so nothing is simulated twice *)
  let instrs =
    Array.init n_images (fun i ->
        Array.init n_images (fun j ->
            (Experiment.run_compiled compiled.(i) w ~input:(image j))
              .Experiment.instrs))
  in
  let self_instrs = Array.init n_images (fun j -> instrs.(j).(j)) in
  let ratios = ref [] in
  for i = 0 to n_images - 1 do
    for j = 0 to n_images - 1 do
      ratios :=
        (float_of_int instrs.(i).(j) /. float_of_int self_instrs.(j))
        :: !ratios
    done
  done;
  let arr = Array.of_list (List.sort compare !ratios) in
  let n = Array.length arr in
  let pct p = arr.(min (n - 1) (int_of_float (p *. float_of_int n))) in
  let over =
    Array.fold_left (fun acc r -> if r > 1.05 then acc + 1 else acc) 0 arr
  in
  Printf.sprintf "%-6s %12.3f %12.3f %12.3f %11.1f%%\n"
    (Profile.heuristic_name h) (pct 0.5) (pct 0.9)
    arr.(n - 1)
    (100.0 *. float_of_int over /. float_of_int n)

let fig16 () =
  let rows = par fig16_row [ Profile.Hmax; Profile.Havg; Profile.Hmin ] in
  header
    "Figure 16: susan-edges profile/run image pairs — dynamic instructions \
     relative to self-profiled (CDF summary; paper uses 50 BSDS500 images, \
     we use 8 synthetic textures)";
  Printf.printf "%-6s %12s %12s %12s %12s\n" "T" "p50" "p90" "max" ">1.05";
  List.iter print_string rows

(* ---------------------------------------------------------------------- *)
(* Figure 17 (RQ8): composition with dynamic timing slack                   *)
(* ---------------------------------------------------------------------- *)

(* The BASELINE and BITSPEC simulations of the test input, as Figure 8
   measured them: {!Paper.measure} checks the cell's checksum and
   {!Experiment.run_test} hands back the same memoised run. *)
let test_run config (w : Workload.t) =
  ignore
    (Paper.measure { Paper.kernel = w.name; config; source = Paper.Train });
  snd (Experiment.run_test config w)

let fig17_row (w : Workload.t) =
  let rb = test_run Driver.baseline_config w in
  let rs = test_run Driver.bitspec_config w in
  let dts est (r : Bs_sim.Machine.result) =
    Energy.total
      (fst (Dts.scale est r.Bs_sim.Machine.ctr (Energy.of_result r)))
  in
  let base_e = Energy.total (Energy.of_result rb) in
  let spec_e = Energy.total (Energy.of_result rs) in
  let dts_rel = dts Dts.Conservative rb /. base_e in
  let dts_spec_rel = dts Dts.Conservative rs /. base_e in
  let aware_rel = dts Dts.Width_aware rs /. base_e in
  Printf.sprintf "%-18s %12.3f %12.3f %12.3f %12.3f\n" w.name dts_rel
    dts_spec_rel
    (dts_rel *. (spec_e /. base_e))
    aware_rel

let fig17 () =
  let rows = par fig17_row benches in
  header "Figure 17: DTS and DTS+BITSPEC energy (vs BASELINE)";
  row_header [ "DTS"; "DTS+BITSPEC"; "product"; "width-aware" ];
  List.iter print_string rows

(* ---------------------------------------------------------------------- *)
(* Intermittent power: re-execution energy vs outage rate                   *)
(* ---------------------------------------------------------------------- *)

let harvest_benches =
  List.filter
    (fun (w : Workload.t) ->
      List.mem w.name [ "CRC32"; "bitcount"; "stringsearch" ])
    benches

let harvest_means = [ 500; 2000; 8000; 32000 ]

let harvest_cell ((w : Workload.t), mean) =
  let c =
    Campaign.run_power ~jobs:1 ~policy:(Bs_sim.Checkpoint.Interval 500)
      ~retries:8
      ~dist:(Bs_sim.Powertrace.Exponential (float_of_int mean))
      ~trials:25 ~seed:3L w
  in
  let n = float_of_int (List.length c.Campaign.p_trials) in
  let sum f = List.fold_left (fun a t -> a +. f t) 0.0 c.Campaign.p_trials in
  let restores = sum (fun t -> float_of_int t.Campaign.pt_restores) /. n in
  let ckpt_ovh =
    100.0 *. sum (fun t -> t.Campaign.pt_ckpt_energy) /. n
    /. c.Campaign.p_golden_energy
  in
  let reexec_ovh =
    100.0 *. sum (fun t -> t.Campaign.pt_reexec_energy) /. n
    /. c.Campaign.p_golden_energy
  in
  let ok =
    List.for_all
      (fun t ->
        match t.Campaign.pt_verdict with
        | Campaign.P_completed | Campaign.P_restored _ -> true
        | _ -> false)
      c.Campaign.p_trials
  in
  Printf.sprintf "  exp:%-8d %10.1f %9.1f%% %9.1f%% %10s\n" mean restores
    ckpt_ovh reexec_ovh
    (if ok then "all-correct" else "HAS-FAILURES")

let harvest () =
  let cells =
    List.concat_map
      (fun w -> List.map (fun m -> (w, m)) harvest_means)
      harvest_benches
  in
  let lines = List.combine cells (par harvest_cell cells) in
  header
    "Intermittent power: energy overhead vs outage rate (exp-distributed \
     outages, interval:500 checkpoints, 25 trials/cell, seed 3)";
  List.iter
    (fun (((w : Workload.t), mean), line) ->
      if mean = List.hd harvest_means then
        Printf.printf "-- %s (columns: restores/trial, checkpoint overhead, \
                       re-execution overhead, verdicts)\n"
          w.name;
      print_string line)
    lines

(* ---------------------------------------------------------------------- *)
(* Bit-level vulnerability: predicted vs measured                           *)
(* ---------------------------------------------------------------------- *)

let vuln () =
  let reports =
    par
      (fun w ->
        Campaign.validation_report
          (Campaign.validate ~jobs:1 ~trials:400 ~seed:11L w))
      harvest_benches
  in
  header
    "Bit-level vulnerability: predicted vs measured (400 register-flip \
     trials/workload, seed 11)";
  List.iter2
    (fun (w : Workload.t) report -> Printf.printf "-- %s\n%s" w.name report)
    harvest_benches reports

(* ---------------------------------------------------------------------- *)

let sections =
  let paper name =
    ( name,
      paper_section
        (List.find (fun s -> s.Paper.name = name) Paper.sections) )
  in
  [ ("fig1", fig1); ("fig3", fig3); ("fig5", fig5); paper "fig8";
    paper "fig9"; paper "fig10"; paper "fig11"; paper "fig12"; paper "rq3";
    paper "fig13"; paper "fig14"; paper "table2"; paper "rq5";
    ("tune", tune); paper "fig15"; ("fig16", fig16); paper "rq7";
    ("fig17", fig17); paper "fig18"; ("harvest", harvest); ("vuln", vuln) ]

(* Every name and the job count are checked before any work: a misspelt
   section must not pass as an empty run. *)
let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "bench: %s\nusage: main.exe [--jobs N] [SECTION...]\n\
                      sections: %s\n"
        msg (String.concat " " (List.map fst sections));
      exit 2)
    fmt

let set_jobs n =
  match int_of_string_opt n with
  | Some j -> jobs := max 1 j
  | None -> usage_error "bad job count %S" n

let () =
  (* Throughput GC regime for the harness: a larger minor heap keeps
     short-lived simulator and interpreter values from being collected
     (and promoted) mid-run, and a higher space overhead trades major-GC
     frequency for memory we can afford in a batch process.  Affects
     wall-clock numbers only — results are GC-invariant. *)
  Gc.set
    { (Gc.get ()) with
      Gc.minor_heap_size = 8 * 1024 * 1024;
      Gc.space_overhead = 200 };
  (* peel -jN / --jobs N / --jobs=N off the section list *)
  let rec parse acc = function
    | [] -> List.rev acc
    | ("-j" | "--jobs") :: n :: rest ->
        set_jobs n;
        parse acc rest
    | a :: rest when String.starts_with ~prefix:"--jobs=" a ->
        set_jobs (String.sub a 7 (String.length a - 7));
        parse acc rest
    | a :: rest when String.length a > 2 && String.starts_with ~prefix:"-j" a
      ->
        set_jobs (String.sub a 2 (String.length a - 2));
        parse acc rest
    | a :: rest -> parse (a :: acc) rest
  in
  let requested =
    match parse [] (List.tl (Array.to_list Sys.argv)) with
    | [] -> List.map fst sections
    | l -> l
  in
  List.iter
    (fun name ->
      if not (List.mem_assoc name sections) then
        usage_error "unknown section %s" name)
    requested;
  Bs_obs.Trace.enable ();
  (try List.iter (fun name -> List.assoc name sections ()) requested
   with Failure msg ->
     Printf.eprintf "bench: %s\n" msg;
     exit 1);
  Bs_obs.Trace.disable ();
  Format.eprintf "%a" Bs_obs.Trace.pp_phase_table ()
