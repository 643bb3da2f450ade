open Bs_interp
open Bs_sim
open Bs_energy
open Bs_workloads

(* The experiment harness: compile a workload under a configuration,
   simulate it on its test input, and collect every metric the paper's
   figures report.  All relative numbers are against the BASELINE build of
   the same workload, as in §4. *)

type metrics = {
  checksum : int64;
  instrs : int;
  cycles : int;
  misspecs : int;
  energy : Energy.breakdown;
  total_energy : float;
  epi : float;
  spill_loads : int;
  spill_stores : int;
  copies : int;
  reg_accesses_32 : int;
  reg_accesses_8 : int;
  icache_accesses : int;
  dcache_accesses : int;
}

(* The one place a machine run that trapped is refused: it has no
   metrics. *)
let metrics_of_run (r : Machine.result) : metrics =
  Bs_support.Outcome.refuse_trap ~engine:"simulator" r.Machine.outcome;
  let b = Energy.of_result r in
  let c = r.Machine.ctr in
  { checksum = r.Machine.r0;
    instrs = c.Counters.instrs;
    cycles = c.Counters.cycles;
    misspecs = c.Counters.misspecs;
    energy = b;
    total_energy = Energy.total b;
    epi = Energy.epi b c;
    spill_loads = c.Counters.spill_loads;
    spill_stores = c.Counters.spill_stores;
    copies = c.Counters.copies;
    reg_accesses_32 = c.Counters.reg_read32 + c.Counters.reg_write32;
    reg_accesses_8 = c.Counters.reg_read8 + c.Counters.reg_write8;
    icache_accesses = Cache.accesses r.Machine.icache;
    dcache_accesses = Cache.accesses r.Machine.dcache }

(** [compile_workload config w] compiles [w] under [config], profiling on
    the train input (or [profile_input] when given — RQ6 swaps in the
    alternate input here).

    Compilations are routed through the process-wide {!Compile_cache}:
    the key is the source digest, the full configuration tag, and the
    profile input's identity.  The train input is content-known (it
    belongs to the workload), so plain compiles are cached under the
    label ["train"].  An anonymous [profile_input] closure has no
    content address — callers that reuse one (fig16's image sweep) pass
    [profile_tag] to opt in; without a tag the compile runs uncached. *)
let compile_workload ?(origin : Compile_cache.origin ref option)
    ?(profile_input : Workload.input option)
    ?(profile_tag : string option) (config : Driver.config)
    (w : Workload.t) : Driver.compiled =
  Bs_obs.Trace.with_span
    ~args:[ ("workload", w.Workload.name) ]
    "experiment:compile"
  @@ fun () ->
  let pi = Option.value profile_input ~default:w.train in
  let label =
    match (profile_tag, profile_input) with
    | Some t, _ -> Some t
    | None, None -> Some "train"
    | None, Some _ -> None
  in
  (* Profiling sees only the pre-squeeze module, so its identity is the
     source, the expander tag and the training run — NOT the heuristic or
     the squeeze flags.  A content-addressed input (same [label] basis as
     the compile key) lets Driver share the training run across a
     MAX/AVG/MIN sweep. *)
  let profile_key =
    Option.map
      (fun l ->
        Printf.sprintf "%s|%s|%s|%s:%s@%s" w.Workload.name
          (Compile_cache.source_key w.Workload.source)
          (Driver.expander_tag config) l w.entry
          (String.concat "," (List.map Int64.to_string pi.Workload.args)))
      label
  in
  let thunk () =
    Driver.compile ?profile_key ~config ~source:w.source
      ~setup:pi.Workload.setup
      ~train:[ (w.entry, pi.Workload.args) ] ()
  in
  match label with
  | None ->
      (match origin with Some r -> r := Compile_cache.Fresh | None -> ());
      thunk ()
  | Some label ->
      let key =
        Printf.sprintf "%s|%s|%s|%s@%s" w.Workload.name
          (Compile_cache.source_key w.Workload.source)
          (Driver.config_tag config)
          label
          (String.concat "," (List.map Int64.to_string pi.Workload.args))
      in
      Compile_cache.compile ?origin ~key thunk

(** [run_compiled c w ~input] simulates and collects metrics. *)
let run_compiled (c : Driver.compiled) (w : Workload.t)
    ~(input : Workload.input) : metrics =
  Bs_obs.Trace.with_span
    ~args:[ ("workload", w.Workload.name) ]
    "experiment:simulate"
  @@ fun () ->
  let r =
    Driver.run_machine ~setup:(input.Workload.setup c.Driver.ir) c
      ~entry:w.entry ~args:input.Workload.args
  in
  metrics_of_run r

(* Attribution: fold a run's per-pc misspeculation counts into
   per-source-site rows through the program's srcmap.  Rows come out
   most-frequent first (ties by site) and the counts sum to
   [r.ctr.misspecs]; pcs the assembler could not attribute (none in
   practice — every misspeculating insn carries a site) fall back to a
   synthetic "pc:N" row rather than being dropped. *)
let misspec_sites (c : Driver.compiled) (r : Machine.result) :
    ((string * string * int) * int) list =
  let srcmap = c.Driver.program.Bs_backend.Asm.srcmap in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (pc, n) ->
      let key =
        match if pc < Array.length srcmap then srcmap.(pc) else None with
        | Some s ->
            (s.Bs_backend.Mir.s_fn, s.Bs_backend.Mir.s_var,
             s.Bs_backend.Mir.s_line)
        | None -> ("?", Printf.sprintf "pc:%d" pc, 0)
      in
      match Hashtbl.find_opt tbl key with
      | Some m -> Hashtbl.replace tbl key (m + n)
      | None -> Hashtbl.add tbl key n)
    r.Machine.misspec_pcs;
  List.sort
    (fun (ka, na) (kb, nb) ->
      let cn = Int.compare nb na in
      if cn <> 0 then cn else compare ka kb)
    (Hashtbl.fold (fun k n acc -> (k, n) :: acc) tbl [])

let pp_misspec_sites ppf sites =
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 sites in
  Format.fprintf ppf "misspeculation sites (total %d):@." total;
  List.iter
    (fun ((fn, var, line), n) ->
      let where = if line > 0 then Printf.sprintf "%s:%d" fn line else fn in
      Format.fprintf ppf "  %8d  %s (%s)@." n var where)
    sites

(* The test-input simulation of a plain (train-profiled) build is the
   workhorse run: the figure sections measure it and the misspeculation
   report re-attributes the very same execution.  Memoize the raw
   [Machine.result] per (config, source) so each is simulated once per
   process; consumers only read the result (counters, misspec pcs), and
   simulation is deterministic, so sharing is unobservable except in
   time.  Runs on custom inputs ([profile_input]/[run_compiled]) have no
   content address and stay uncached. *)
let test_run_tbl : (string, Machine.result) Bs_exec.Memo.t =
  Bs_exec.Memo.create ~cap:256 ()

(** [run_test config w] compiles (via the compile cache) and simulates
    [w]'s test input, memoized per process. *)
let run_test ?origin (config : Driver.config) (w : Workload.t) :
    Driver.compiled * Machine.result =
  let c = compile_workload ?origin config w in
  let key =
    Driver.config_tag config ^ "|" ^ w.Workload.name ^ "|"
    ^ Compile_cache.source_key w.Workload.source
  in
  let r =
    Bs_exec.Memo.find_or_add test_run_tbl key (fun () ->
        Bs_obs.Trace.with_span
          ~args:[ ("workload", w.Workload.name) ]
          "experiment:simulate"
        @@ fun () ->
        Driver.run_machine
          ~setup:(w.test.Workload.setup c.Driver.ir)
          c ~entry:w.entry ~args:w.test.Workload.args)
  in
  (c, r)

(** One-call experiment: compile under [config] and measure on the test
    input. *)
let run ?profile_input ?profile_tag (config : Driver.config) (w : Workload.t)
    : metrics =
  match (profile_input, profile_tag) with
  | None, None ->
      let _, r = run_test config w in
      metrics_of_run r
  | _ ->
      let c = compile_workload ?profile_input ?profile_tag config w in
      run_compiled c w ~input:w.test

(* The reference checksum only depends on the workload's source and test
   input, so it too is computed once per process (campaigns and the
   bench subcommand both ask for it). *)
let reference_tbl : (string, int64) Bs_exec.Memo.t =
  Bs_exec.Memo.create ~cap:256 ()

(** Reference-interpreter checksum on the test input (correctness oracle:
    any simulated build must reproduce it).  The engine participates in
    the memo key: the checksums are engine-invariant by construction,
    but a caller that asked for [Tree] (the injection campaigns) must
    not be served a value another caller computed under [Compiled]. *)
let reference_checksum ?(interp_engine = Interp.Compiled) (w : Workload.t) :
    int64 =
  let etag = match interp_engine with Interp.Tree -> "t" | Interp.Compiled -> "c" in
  Bs_exec.Memo.find_or_add reference_tbl
    (w.Workload.name ^ "|"
    ^ Compile_cache.source_key w.Workload.source
    ^ "|" ^ etag)
    (fun () ->
      let m = Bs_frontend.Lower.compile w.source in
      let opts = { Interp.default_opts with engine = interp_engine } in
      let r, _ =
        Interp.run_fresh ~opts ~setup:(w.test.Workload.setup m) m
          ~entry:w.entry ~args:w.test.Workload.args
      in
      Bs_support.Outcome.refuse_trap ~engine:"interpreter" r.Interp.outcome;
      match r.Interp.ret with
      | Some v -> Int64.logand v 0xFFFFFFFFL
      | None -> 0L)

(** Relative value helper: [rel v base] = v / base. *)
let rel v base = if base = 0.0 then 1.0 else v /. base
