(* The experiment harness: regenerates every table and figure of the
   paper's evaluation (§4).  Each section prints the same rows/series the
   paper reports, computed from the activity counters of the simulated
   machine.

   Usage:
     dune exec bench/main.exe                  # everything
     dune exec bench/main.exe fig8 table2      # selected sections
     dune exec bench/main.exe -- --jobs 4      # size of the domain pool

   Every experiment is computed through process-wide memo tables (and all
   compilations through the content-addressed {!Compile_cache}), so the
   printed bytes are identical whatever the job count: the pool only
   pre-fills the tables before each section prints in its usual order.
   A machine-readable run summary lands in BENCH_pr9.json: per-section
   wall-clock and compile-cache hits/misses (including a synthetic
   [warm] section for the report phase, so the section deltas sum
   exactly to the global counters), a compiler phase-time breakdown
   (from the {!Bs_obs.Trace} spans), per-workload misspeculation-site
   histograms with aggregate activity counters, and the host execution
   rates of both back ends: [simulated_mips] (machine simulator) and
   [interp_mips] (IR interpreter, compiled engine).

   Absolute energy is in model units; every figure reports values relative
   to BASELINE exactly as the paper does.  EXPERIMENTS.md records the
   paper-vs-measured comparison per section. *)

open Bitspec
open Bs_workloads
open Bs_interp
open Bs_energy

let benches = Registry.all

(* ---------------------------------------------------------------------- *)
(* Parallel pre-fill and cached experiment runs                            *)
(* ---------------------------------------------------------------------- *)

let jobs = ref (Bs_exec.Pool.default_jobs ())

let cache : (string, Experiment.metrics) Bs_exec.Memo.t =
  Bs_exec.Memo.create ()

let run_cached ?profile_input ?tag config (w : Workload.t) =
  let key =
    Driver.config_tag config ^ "/" ^ w.name
    ^ match tag with Some t -> "#" ^ t | None -> ""
  in
  Bs_exec.Memo.find_or_add cache key (fun () ->
      Experiment.run ?profile_input ?profile_tag:tag config w)

let baseline w = run_cached Driver.baseline_config w
let bitspec w = run_cached Driver.bitspec_config w

(* [warm cells] fans the section's independent units of work out over the
   domain pool; the section body then prints from the hot memo tables. *)
let warm cells =
  Bs_exec.Pool.run_all ~jobs:!jobs (Array.of_list cells)

let ig f () = ignore (f ())

(* Memoised row strings, for sections whose unit of work is a whole
   custom-computed row rather than a [run_cached] cell. *)
let rows : (string, string) Bs_exec.Memo.t = Bs_exec.Memo.create ()
let row key f = Bs_exec.Memo.find_or_add rows key f

let rel a b = if b = 0.0 then 1.0 else a /. b
let reli a b = rel (float_of_int a) (float_of_int b)

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

let print_dist name (d : float array) =
  if Array.length d = 4 then
    Printf.printf "%-20s %8.1f%% %8.1f%% %8.1f%% %8.1f%%\n%!" name
      (100. *. d.(0)) (100. *. d.(1)) (100. *. d.(2)) (100. *. d.(3))

let fig1 () =
  warm (List.map (fun w -> ig (fun () -> profile_for_fig1 w)) benches);
  header "Figure 1: dynamic IR integer instructions by bitwidth selection";
  List.iter
    (fun (w : Workload.t) ->
      let m, profile = profile_for_fig1 w in
      Printf.printf "-- %s (columns: 8 / 16 / 32 / 64 bits)\n" w.name;
      print_dist "  (a) required" (Profile.required_distribution profile);
      print_dist "  (b) programmer" (Profile.programmer_distribution profile);
      let db = Bs_analysis.Demanded_bits.module_selection m in
      print_dist "  (c) demanded-bits"
        (Profile.selection_distribution profile ~select:db);
      let bc = Bs_analysis.Block_coerce.selection m profile in
      print_dist "  (d) block-coerced"
        (Profile.selection_distribution profile ~select:bc))
    benches

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

let fig3_factors = [ 1; 2; 4; 8; 16 ]

let fig3_row factor =
  row (Printf.sprintf "fig3/u%d" factor) (fun () ->
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
        mr.Bs_sim.Machine.ctr.Bs_sim.Counters.instrs)

let fig3 () =
  warm (List.map (fun f -> ig (fun () -> fig3_row f)) fig3_factors);
  header "Figure 3: unrolling factor vs dynamic IR and assembly instructions";
  Printf.printf "%-8s %14s %14s\n" "factor" "IR instrs" "asm instrs";
  List.iter (fun f -> Printf.printf "%s%!" (fig3_row f)) fig3_factors

(* ---------------------------------------------------------------------- *)
(* Figure 5: profiler classification under T = MAX / AVG / MIN              *)
(* ---------------------------------------------------------------------- *)

let fig5 () =
  warm (List.map (fun w -> ig (fun () -> profile_for_fig1 w)) benches);
  header "Figure 5: profiler bitwidth classes under each heuristic";
  List.iter
    (fun (w : Workload.t) ->
      let _, profile = profile_for_fig1 w in
      Printf.printf "-- %s (columns: 8 / 16 / 32 / 64 bits)\n" w.name;
      List.iter
        (fun h ->
          print_dist
            ("  T=" ^ Profile.heuristic_name h)
            (Profile.heuristic_distribution profile h))
        [ Profile.Hmax; Profile.Havg; Profile.Hmin ])
    benches

(* ---------------------------------------------------------------------- *)
(* Figure 8: energy, dynamic instructions, EPI                              *)
(* ---------------------------------------------------------------------- *)

let warm_base_spec () =
  warm
    (List.concat_map
       (fun w -> [ ig (fun () -> baseline w); ig (fun () -> bitspec w) ])
       benches)

let fig8 () =
  warm_base_spec ();
  header "Figure 8: BITSPEC relative to BASELINE";
  row_header [ "energy"; "dyn instrs"; "EPI" ];
  let gm_e = ref 0.0 and n = ref 0 in
  List.iter
    (fun (w : Workload.t) ->
      let b = baseline w and s = bitspec w in
      let e = rel s.Experiment.total_energy b.Experiment.total_energy in
      gm_e := !gm_e +. log e;
      incr n;
      Printf.printf "%-18s %12.3f %12.3f %12.3f\n%!" w.name e
        (reli s.Experiment.instrs b.Experiment.instrs)
        (rel s.Experiment.epi b.Experiment.epi))
    benches;
  Printf.printf "%-18s %12.3f   (geometric mean; paper reports 0.901)\n"
    "MEAN energy"
    (exp (!gm_e /. float_of_int !n))

(* ---------------------------------------------------------------------- *)
(* Figure 9: per-component energy                                           *)
(* ---------------------------------------------------------------------- *)

let fig9 () =
  warm_base_spec ();
  header "Figure 9: per-component energy relative to the BASELINE component";
  row_header [ "ALU"; "regfile"; "D$"; "I$"; "pipeline" ];
  List.iter
    (fun (w : Workload.t) ->
      let b = (baseline w).Experiment.energy
      and s = (bitspec w).Experiment.energy in
      Printf.printf "%-18s %12.3f %12.3f %12.3f %12.3f %12.3f\n%!" w.name
        (rel s.Energy.alu b.Energy.alu)
        (rel s.Energy.regfile b.Energy.regfile)
        (rel s.Energy.dcache b.Energy.dcache)
        (rel s.Energy.icache b.Energy.icache)
        (rel s.Energy.pipeline b.Energy.pipeline))
    benches

(* ---------------------------------------------------------------------- *)
(* Figure 10: register-allocator traffic                                    *)
(* ---------------------------------------------------------------------- *)

let fig10 () =
  warm_base_spec ();
  header
    "Figure 10: spill loads / stores / copies (normalised to their BASELINE \
     sum)";
  row_header [ "loads"; "stores"; "copies"; "total" ];
  List.iter
    (fun (w : Workload.t) ->
      let b = baseline w and s = bitspec w in
      let base_sum =
        float_of_int
          (b.Experiment.spill_loads + b.Experiment.spill_stores
         + b.Experiment.copies)
      in
      let base_sum = if base_sum = 0.0 then 1.0 else base_sum in
      let f x = float_of_int x /. base_sum in
      Printf.printf "%-18s %12.3f %12.3f %12.3f %12.3f\n%!" w.name
        (f s.Experiment.spill_loads)
        (f s.Experiment.spill_stores)
        (f s.Experiment.copies)
        (f
           (s.Experiment.spill_loads + s.Experiment.spill_stores
          + s.Experiment.copies)))
    benches

(* ---------------------------------------------------------------------- *)
(* Figure 11: dynamic register accesses at 8 and 32 bits                    *)
(* ---------------------------------------------------------------------- *)

let fig11 () =
  warm_base_spec ();
  header "Figure 11: register accesses relative to BASELINE (all 32-bit there)";
  row_header [ "32-bit"; "8-bit"; "total" ];
  List.iter
    (fun (w : Workload.t) ->
      let b = baseline w and s = bitspec w in
      let base = float_of_int b.Experiment.reg_accesses_32 in
      Printf.printf "%-18s %12.3f %12.3f %12.3f\n%!" w.name
        (float_of_int s.Experiment.reg_accesses_32 /. base)
        (float_of_int s.Experiment.reg_accesses_8 /. base)
        (float_of_int
           (s.Experiment.reg_accesses_32 + s.Experiment.reg_accesses_8)
        /. base))
    benches

(* ---------------------------------------------------------------------- *)
(* Figure 12 (RQ2): register packing without speculation                    *)
(* ---------------------------------------------------------------------- *)

let fig12 () =
  let nospec_cfg = { Driver.bitspec_config with speculate = false } in
  warm
    (List.concat_map
       (fun w ->
         [ ig (fun () -> baseline w); ig (fun () -> run_cached nospec_cfg w);
           ig (fun () -> bitspec w) ])
       benches);
  header "Figure 12: energy without speculation vs BITSPEC (both vs BASELINE)";
  row_header [ "no-spec"; "bitspec" ];
  List.iter
    (fun (w : Workload.t) ->
      let b = baseline w in
      let ns = run_cached nospec_cfg w in
      let s = bitspec w in
      Printf.printf "%-18s %12.3f %12.3f\n%!" w.name
        (rel ns.Experiment.total_energy b.Experiment.total_energy)
        (rel s.Experiment.total_energy b.Experiment.total_energy))
    benches

(* ---------------------------------------------------------------------- *)
(* RQ3: optimisation ablations                                              *)
(* ---------------------------------------------------------------------- *)

let rq3_benches = [ "dijkstra"; "blowfish"; "rijndael"; "CRC32" ]

let rq3 () =
  let no_ce = { Driver.bitspec_config with compare_elim = false } in
  let no_bm = { Driver.bitspec_config with bitmask_elide = false } in
  warm
    (List.concat_map
       (fun name ->
         let w = Registry.find name in
         [ ig (fun () -> baseline w); ig (fun () -> bitspec w);
           ig (fun () -> run_cached no_ce w);
           ig (fun () -> run_cached no_bm w) ])
       rq3_benches);
  header "RQ3: BITSPEC-specific optimisation ablations (energy vs BASELINE)";
  row_header [ "full"; "-cmp-elim"; "-bitmask" ];
  List.iter
    (fun name ->
      let w = Registry.find name in
      let b = baseline w in
      let full = bitspec w in
      let a = run_cached no_ce w and c = run_cached no_bm w in
      Printf.printf "%-18s %12.3f %12.3f %12.3f\n%!" w.name
        (rel full.Experiment.total_energy b.Experiment.total_energy)
        (rel a.Experiment.total_energy b.Experiment.total_energy)
        (rel c.Experiment.total_energy b.Experiment.total_energy))
    rq3_benches

(* ---------------------------------------------------------------------- *)
(* Figure 13 (RQ4): expander disabled                                       *)
(* ---------------------------------------------------------------------- *)

let fig13 () =
  let noexp = Expander.disabled in
  let base_noexp = { Driver.baseline_config with expander = noexp } in
  let spec_noexp = { Driver.bitspec_config with expander = noexp } in
  warm
    (List.concat_map
       (fun w ->
         [ ig (fun () -> baseline w);
           ig (fun () -> run_cached base_noexp w);
           ig (fun () -> run_cached spec_noexp w) ])
       benches);
  header "Figure 13: expander disabled (relative to BASELINE with expander)";
  row_header [ "base-noexp E"; "spec-noexp E"; "spec-noexp EPI" ];
  List.iter
    (fun (w : Workload.t) ->
      let b = baseline w in
      let bn = run_cached base_noexp w in
      let sn = run_cached spec_noexp w in
      Printf.printf "%-18s %12.3f %12.3f %12.3f\n%!" w.name
        (rel bn.Experiment.total_energy b.Experiment.total_energy)
        (rel sn.Experiment.total_energy b.Experiment.total_energy)
        (rel sn.Experiment.epi b.Experiment.epi))
    benches

(* ---------------------------------------------------------------------- *)
(* Figure 14 + Table 2: heuristic aggressiveness                            *)
(* ---------------------------------------------------------------------- *)

let heuristic_cfg h = { Driver.bitspec_config with heuristic = h }

let warm_heuristics ?(with_baseline = false) () =
  warm
    (List.concat_map
       (fun w ->
         (if with_baseline then [ ig (fun () -> baseline w) ] else [])
         @ List.map
             (fun h -> ig (fun () -> run_cached (heuristic_cfg h) w))
             [ Profile.Hmax; Profile.Havg; Profile.Hmin ])
       benches)

let fig14 () =
  warm_heuristics ~with_baseline:true ();
  header "Figure 14: energy per selection heuristic (vs BASELINE)";
  row_header [ "MAX"; "AVG"; "MIN" ];
  List.iter
    (fun (w : Workload.t) ->
      let b = baseline w in
      let e h =
        rel
          (run_cached (heuristic_cfg h) w).Experiment.total_energy
          b.Experiment.total_energy
      in
      Printf.printf "%-18s %12.3f %12.3f %12.3f\n%!" w.name (e Profile.Hmax)
        (e Profile.Havg) (e Profile.Hmin))
    benches

let table2 () =
  warm_heuristics ();
  header "Table 2: misspeculation counts per heuristic";
  row_header [ "MAX"; "AVG"; "MIN" ];
  List.iter
    (fun (w : Workload.t) ->
      let mi h = (run_cached (heuristic_cfg h) w).Experiment.misspecs in
      Printf.printf "%-18s %12d %12d %12d\n%!" w.name (mi Profile.Hmax)
        (mi Profile.Havg) (mi Profile.Hmin))
    benches

(* ---------------------------------------------------------------------- *)
(* RQ5 deep dive: CFG_orig code quality under MIN                           *)
(* ---------------------------------------------------------------------- *)

let rq5 () =
  let min_cfg = { Driver.bitspec_config with heuristic = Profile.Hmin } in
  let min_inv = { min_cfg with orig_first = true } in
  warm
    (List.concat_map
       (fun w ->
         [ ig (fun () -> baseline w); ig (fun () -> run_cached min_cfg w);
           ig (fun () -> run_cached min_inv w) ])
       benches);
  header
    "RQ5: MIN-heuristic dynamic instructions vs BASELINE, with the default \
     allocator weights (handlers never entered) vs inverted (CFG_orig \
     first)";
  row_header [ "MIN default"; "MIN orig-1st"; "misspecs" ];
  List.iter
    (fun (w : Workload.t) ->
      let b = baseline w in
      let d = run_cached min_cfg w in
      let i = run_cached min_inv w in
      Printf.printf "%-18s %12.3f %12.3f %12d\n%!" w.name
        (reli d.Experiment.instrs b.Experiment.instrs)
        (reli i.Experiment.instrs b.Experiment.instrs)
        d.Experiment.misspecs)
    benches

(* ---------------------------------------------------------------------- *)
(* Autotuning the expander (§3.2.1's offline search)                        *)
(* ---------------------------------------------------------------------- *)

let tune_benches = [ "CRC32"; "bitcount"; "sha" ]

let tune_row name =
  row ("tune/" ^ name) (fun () ->
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
        best.Expander.max_loop_size (measure m))

let tune () =
  warm (List.map (fun n -> ig (fun () -> tune_row n)) tune_benches);
  header
    "Expander autotuning: grid search minimising BASELINE dynamic IR \
     instructions (the paper's 10-day OpenTuner run, reduced to a grid)";
  Printf.printf "%-18s %8s %10s %10s %14s\n" "benchmark" "unroll" "max-fn"
    "max-loop" "IR instrs";
  List.iter (fun n -> Printf.printf "%s%!" (tune_row n)) tune_benches

(* ---------------------------------------------------------------------- *)
(* Figure 15 (RQ6): alternate profiling input                               *)
(* ---------------------------------------------------------------------- *)

let fig15 () =
  warm
    (List.concat_map
       (fun (w : Workload.t) ->
         [ ig (fun () -> baseline w); ig (fun () -> bitspec w);
           ig (fun () ->
               run_cached ~profile_input:w.alt ~tag:"altprof"
                 Driver.bitspec_config w) ])
       benches);
  header "Figure 15: profiling on the alternate input (energy vs BASELINE)";
  row_header [ "train-prof"; "alt-prof" ];
  List.iter
    (fun (w : Workload.t) ->
      let b = baseline w in
      let s = bitspec w in
      let alt =
        run_cached ~profile_input:w.alt ~tag:"altprof" Driver.bitspec_config w
      in
      Printf.printf "%-18s %12.3f %12.3f\n%!" w.name
        (rel s.Experiment.total_energy b.Experiment.total_energy)
        (rel alt.Experiment.total_energy b.Experiment.total_energy))
    benches

(* ---------------------------------------------------------------------- *)
(* Figure 16 (RQ6 deep dive): susan-edges image-pair study                  *)
(* ---------------------------------------------------------------------- *)

let fig16_row h =
  row ("fig16/" ^ Profile.heuristic_name h) (fun () ->
      let w = Registry.find "susan-edges" in
      let n_images = 8 in
      let image i =
        Susan.gen_input
          ~seed:(Int64.of_int (900 + i))
          ~range:(100 + (18 * i))
          ~threshold:20
      in
      let cfg = heuristic_cfg h in
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
        (100.0 *. float_of_int over /. float_of_int n))

let fig16 () =
  let hs = [ Profile.Hmax; Profile.Havg; Profile.Hmin ] in
  warm (List.map (fun h -> ig (fun () -> fig16_row h)) hs);
  header
    "Figure 16: susan-edges profile/run image pairs — dynamic instructions \
     relative to self-profiled (CDF summary; paper uses 50 BSDS500 images, \
     we use 8 synthetic textures)";
  Printf.printf "%-6s %12s %12s %12s %12s\n" "T" "p50" "p90" "max" ">1.05";
  List.iter (fun h -> Printf.printf "%s%!" (fig16_row h)) hs

(* ---------------------------------------------------------------------- *)
(* RQ7: fully automatic bitwidth selection                                  *)
(* ---------------------------------------------------------------------- *)

let rq7_benches = [ "dijkstra"; "stringsearch" ]

let rq7 () =
  warm
    (List.concat_map
       (fun name ->
         let w = Registry.find name in
         match w.Workload.narrow_source with
         | None -> []
         | Some narrow ->
             let narrow_w = { w with Workload.source = narrow } in
             [ ig (fun () ->
                   run_cached ~tag:"narrow" Driver.baseline_config narrow_w);
               ig (fun () -> baseline w); ig (fun () -> bitspec w);
               ig (fun () ->
                   run_cached ~tag:"narrow" Driver.bitspec_config narrow_w) ])
       rq7_benches);
  header
    "RQ7: worst-case-width source vs hand-narrowed source (energy vs \
     narrow-source BASELINE)";
  row_header [ "base-wide"; "spec-wide"; "spec-narrow" ];
  List.iter
    (fun name ->
      let w = Registry.find name in
      match w.narrow_source with
      | None -> ()
      | Some narrow ->
          let narrow_w = { w with source = narrow } in
          let b_narrow =
            run_cached ~tag:"narrow" Driver.baseline_config narrow_w
          in
          let b_wide = baseline w in
          let s_wide = bitspec w in
          let s_narrow =
            run_cached ~tag:"narrow" Driver.bitspec_config narrow_w
          in
          Printf.printf "%-18s %12.3f %12.3f %12.3f\n%!" w.name
            (rel b_wide.Experiment.total_energy b_narrow.Experiment.total_energy)
            (rel s_wide.Experiment.total_energy b_narrow.Experiment.total_energy)
            (rel s_narrow.Experiment.total_energy
               b_narrow.Experiment.total_energy))
    rq7_benches

(* ---------------------------------------------------------------------- *)
(* Figure 17 (RQ8): composition with dynamic timing slack                   *)
(* ---------------------------------------------------------------------- *)

let fig17_row (w : Workload.t) =
  row ("fig17/" ^ w.name) (fun () ->
      let cb = Experiment.compile_workload Driver.baseline_config w in
      let rb =
        Driver.run_machine ~setup:(w.test.Workload.setup cb.Driver.ir) cb
          ~entry:w.entry ~args:w.test.Workload.args
      in
      let cs = Experiment.compile_workload Driver.bitspec_config w in
      let rs =
        Driver.run_machine ~setup:(w.test.Workload.setup cs.Driver.ir) cs
          ~entry:w.entry ~args:w.test.Workload.args
      in
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
        aware_rel)

let fig17 () =
  warm (List.map (fun w -> ig (fun () -> fig17_row w)) benches);
  header "Figure 17: DTS and DTS+BITSPEC energy (vs BASELINE)";
  row_header [ "DTS"; "DTS+BITSPEC"; "product"; "width-aware" ];
  List.iter (fun w -> Printf.printf "%s%!" (fig17_row w)) benches

(* ---------------------------------------------------------------------- *)
(* Figure 18 (RQ9): Thumb dynamic instructions                              *)
(* ---------------------------------------------------------------------- *)

let fig18 () =
  warm
    (List.concat_map
       (fun w ->
         [ ig (fun () -> baseline w);
           ig (fun () -> run_cached Driver.thumb_config w) ])
       benches);
  header "Figure 18: Thumb dynamic instructions relative to BASELINE";
  row_header [ "thumb/base" ];
  let sum = ref 0.0 and n = ref 0 in
  List.iter
    (fun (w : Workload.t) ->
      let b = baseline w in
      let t = run_cached Driver.thumb_config w in
      let r = reli t.Experiment.instrs b.Experiment.instrs in
      sum := !sum +. r;
      incr n;
      Printf.printf "%-18s %12.3f\n%!" w.name r)
    benches;
  Printf.printf "%-18s %12.3f   (paper: 1.258 average)\n" "MEAN"
    (!sum /. float_of_int !n)

(* ---------------------------------------------------------------------- *)
(* Intermittent power: re-execution energy vs outage rate                   *)
(* ---------------------------------------------------------------------- *)

let harvest_benches =
  List.filter
    (fun (w : Workload.t) ->
      List.mem w.name [ "CRC32"; "bitcount"; "stringsearch" ])
    benches

let harvest_means = [ 500; 2000; 8000; 32000 ]

let harvest_cell (w : Workload.t) mean =
  row (Printf.sprintf "harvest/%s/%d" w.name mean) (fun () ->
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
      Printf.sprintf "%10.1f %9.1f%% %9.1f%% %10s" restores ckpt_ovh reexec_ovh
        (if ok then "all-correct" else "HAS-FAILURES"))

let harvest () =
  warm
    (List.concat_map
       (fun w ->
         List.map (fun m -> ig (fun () -> harvest_cell w m)) harvest_means)
       harvest_benches);
  header
    "Intermittent power: energy overhead vs outage rate (exp-distributed \
     outages, interval:500 checkpoints, 25 trials/cell, seed 3)";
  List.iter
    (fun (w : Workload.t) ->
      Printf.printf "-- %s (columns: restores/trial, checkpoint overhead, \
                     re-execution overhead, verdicts)\n"
        w.name;
      List.iter
        (fun mean ->
          Printf.printf "  exp:%-8d %s\n%!" mean (harvest_cell w mean))
        harvest_means)
    harvest_benches

(* ---------------------------------------------------------------------- *)
(* Bit-level vulnerability: predicted vs measured                           *)
(* ---------------------------------------------------------------------- *)

let vuln_cell (w : Workload.t) =
  row ("vuln/" ^ w.name) (fun () ->
      Campaign.validation_report
        (Campaign.validate ~jobs:1 ~trials:400 ~seed:11L w))

let vuln () =
  warm (List.map (fun w -> ig (fun () -> vuln_cell w)) harvest_benches);
  header
    "Bit-level vulnerability: predicted vs measured (400 register-flip \
     trials/workload, seed 11)";
  List.iter
    (fun (w : Workload.t) ->
      Printf.printf "-- %s\n%s%!" w.name (vuln_cell w))
    harvest_benches

(* ---------------------------------------------------------------------- *)

let sections =
  [ ("fig1", fig1); ("fig3", fig3); ("fig5", fig5); ("fig8", fig8);
    ("fig9", fig9); ("fig10", fig10); ("fig11", fig11); ("fig12", fig12);
    ("rq3", rq3); ("fig13", fig13); ("fig14", fig14); ("table2", table2);
    ("rq5", rq5); ("tune", tune);
    ("fig15", fig15); ("fig16", fig16); ("rq7", rq7); ("fig17", fig17);
    ("fig18", fig18); ("harvest", harvest); ("vuln", vuln) ]

(* Machine-readable run summary: per-section wall-clock and compile-cache
   deltas, the whole run's phase-time breakdown, and misspeculation
   attribution per workload. *)

let rate h m = if h + m = 0 then 0.0 else float_of_int h /. float_of_int (h + m)

(* Misspeculation attribution: one BITSPEC machine run per workload,
   folded through the srcmap into per-source-site counts.  Compiles are
   served from the compile cache, so after fig8 (or any BITSPEC section)
   this costs one simulation per workload. *)
(* Served entirely from [Experiment.run_test]'s memo when the fig8
   section already ran: attribution reuses the very simulation the
   figures measured instead of repeating it.  [simulated_mips] stays
   meaningful either way — it derives from the wall time the counters
   themselves recorded during the (one) simulation. *)
let misspec_report () =
  List.map
    (fun (w : Workload.t) ->
      let c, r = Experiment.run_test Driver.bitspec_config w in
      (w.name, r.Bs_sim.Machine.ctr, Experiment.misspec_sites c r))
    benches

let top_n n l = List.filteri (fun i _ -> i < n) l

(* Host-side interpreter rate: every workload's test input through the
   IR interpreter (compiled engine — the default opts), reported as IR
   steps per host microsecond.  The interpreter-side analogue of the
   machine's [simulated_mips]; like it, excluded from any deterministic
   comparison.  Compiles are served from the compile cache (same keys
   as the sections), so this costs one interpreter run per workload. *)
let interp_mips () =
  let steps = ref 0 in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun (w : Workload.t) ->
      let c = Experiment.compile_workload Driver.bitspec_config w in
      let r, _ =
        Interp.run_fresh
          ~setup:(w.test.Workload.setup c.Driver.ir)
          c.Driver.ir ~entry:w.entry ~args:w.test.Workload.args
      in
      steps := !steps + r.Interp.steps)
    benches;
  let dt = Unix.gettimeofday () -. t0 in
  if dt <= 0.0 then 0.0 else float_of_int !steps /. dt /. 1e6

let write_bench_json ~total ~phases ~report ~imips timings =
  let hits, misses = Compile_cache.stats () in
  let totals = Bs_sim.Counters.create () in
  List.iter
    (fun (_, ctr, _) -> Bs_sim.Counters.add ~into:totals ctr)
    report;
  let sections_json =
    String.concat ",\n"
      (List.map
         (fun (name, seconds, h, m) ->
           Printf.sprintf
             "    { \"name\": %S, \"seconds\": %.3f, \"compile_cache\": { \
              \"hits\": %d, \"misses\": %d, \"hit_rate\": %.3f } }"
             name seconds h m (rate h m))
         timings)
  in
  let phases_json =
    String.concat ",\n"
      (List.map
         (fun (name, seconds, count) ->
           Printf.sprintf "    { \"name\": %S, \"seconds\": %.3f, \"count\": %d }"
             name seconds count)
         phases)
  in
  let sites_json =
    String.concat ",\n"
      (List.map
         (fun (wname, (ctr : Bs_sim.Counters.t), sites) ->
           Printf.sprintf
             "    { \"workload\": %S, \"misspecs\": %d, \"sites\": [%s] }"
             wname ctr.Bs_sim.Counters.misspecs
             (String.concat ", "
                (List.map
                   (fun ((fn, var, line), n) ->
                     Printf.sprintf
                       "{ \"fn\": %S, \"var\": %S, \"line\": %d, \"count\": %d }"
                       fn var line n)
                   (top_n 5 sites))))
         report)
  in
  let totals_json =
    String.concat ",\n"
      (List.map
         (fun (name, v) -> Printf.sprintf "    \"%s\": %d" name v)
         (Bs_sim.Counters.to_assoc totals))
  in
  let oc = open_out "BENCH_pr9.json" in
  Printf.fprintf oc
    "{\n\
    \  \"jobs\": %d,\n\
    \  \"total_seconds\": %.3f,\n\
    \  \"simulated_mips\": %.2f,\n\
    \  \"interp_mips\": %.2f,\n\
    \  \"compile_cache\": { \"hits\": %d, \"misses\": %d, \"hit_rate\": %.3f },\n\
    \  \"sections\": [\n%s\n  ],\n\
    \  \"phases\": [\n%s\n  ],\n\
    \  \"misspec\": [\n%s\n  ],\n\
    \  \"counter_totals\": {\n%s\n  }\n\
     }\n"
    !jobs total
    (Bs_sim.Counters.simulated_mips totals)
    imips hits misses (rate hits misses)
    sections_json phases_json sites_json totals_json;
  close_out oc

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
        jobs := max 1 (int_of_string n);
        parse acc rest
    | a :: rest when String.length a > 7 && String.sub a 0 7 = "--jobs=" ->
        jobs := max 1 (int_of_string (String.sub a 7 (String.length a - 7)));
        parse acc rest
    | a :: rest when String.length a > 2 && String.sub a 0 2 = "-j" ->
        jobs := max 1 (int_of_string (String.sub a 2 (String.length a - 2)));
        parse acc rest
    | a :: rest -> parse (a :: acc) rest
  in
  let requested =
    match parse [] (List.tl (Array.to_list Sys.argv)) with
    | [] -> List.map fst sections
    | l -> l
  in
  (* record spans for the whole run; the JSON folds them into a
     phase-time breakdown *)
  Bs_obs.Trace.enable ();
  let t_start = Unix.gettimeofday () in
  let h_start, m_start = Compile_cache.stats () in
  let timings = ref [] in
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some f ->
          let h0, m0 = Compile_cache.stats () in
          let t0 = Unix.gettimeofday () in
          f ();
          let h1, m1 = Compile_cache.stats () in
          timings :=
            (name, Unix.gettimeofday () -. t0, h1 - h0, m1 - m0) :: !timings
      | None ->
          Printf.eprintf "unknown section %s (available: %s)\n" name
            (String.concat " " (List.map fst sections)))
    requested;
  (* The report + interpreter-rate phase issues its own (cached)
     compiles after the timed sections.  Account it as a synthetic
     [warm] section so the per-section cache deltas sum exactly to the
     global counters — previously its hits were unattributed. *)
  let h0, m0 = Compile_cache.stats () in
  let t0 = Unix.gettimeofday () in
  let report = misspec_report () in
  let imips = interp_mips () in
  let h1, m1 = Compile_cache.stats () in
  timings :=
    ("warm", Unix.gettimeofday () -. t0, h1 - h0, m1 - m0) :: !timings;
  let total = Unix.gettimeofday () -. t_start in
  Bs_obs.Trace.disable ();
  (* Per-section deltas must account for every global hit and miss: any
     compile issued outside a timed section (or a future report phase
     issuing unattributed work) re-desyncs the JSON silently.  Fail
     loudly instead. *)
  let sec_h =
    List.fold_left (fun acc (_, _, h, _) -> acc + h) 0 !timings
  in
  let sec_m =
    List.fold_left (fun acc (_, _, _, m) -> acc + m) 0 !timings
  in
  let h_end, m_end = Compile_cache.stats () in
  if sec_h <> h_end - h_start || sec_m <> m_end - m_start then begin
    Printf.eprintf
      "bench: cache accounting drift: sections sum to %d hits / %d misses \
       but the global counters moved by %d / %d\n"
      sec_h sec_m (h_end - h_start) (m_end - m_start);
    exit 1
  end;
  write_bench_json ~total ~phases:(Bs_obs.Trace.phase_table ()) ~report ~imips
    (List.rev !timings)
