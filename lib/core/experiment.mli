(** The experiment harness: compile a workload under a configuration,
    simulate it on its test input, and collect every metric the paper's
    figures report.  Relative numbers are always against the BASELINE
    build of the same workload, as in §4. *)

type metrics = {
  checksum : int64;          (** the workload's result (correctness oracle) *)
  instrs : int;              (** dynamic instructions *)
  cycles : int;
  misspecs : int;            (** Table 2 *)
  energy : Bs_energy.Energy.breakdown;  (** Figure 9 components *)
  total_energy : float;      (** Figure 8 *)
  epi : float;               (** energy per instruction *)
  spill_loads : int;         (** Figure 10 *)
  spill_stores : int;
  copies : int;
  reg_accesses_32 : int;     (** Figure 11 *)
  reg_accesses_8 : int;
  icache_accesses : int;
  dcache_accesses : int;
}

val metrics_of_run : Bs_sim.Machine.result -> metrics
(** Collect metrics from one simulation.  A run that trapped has none
    and fails ({!Bs_support.Outcome.refuse_trap}). *)

val compile_workload :
  ?origin:Compile_cache.origin ref ->
  ?profile_input:Bs_workloads.Workload.input ->
  ?profile_tag:string ->
  Driver.config ->
  Bs_workloads.Workload.t ->
  Driver.compiled
(** Compile a workload, profiling on its train input (or [profile_input] —
    RQ6 passes the alternate input here).  Compiles are served from
    {!Compile_cache}: the default train input is cached under the label
    ["train"]; a custom [profile_input] is cached only when the caller
    names it with [profile_tag] (an anonymous input closure has no
    content address).  [origin] reports where this call's compile was
    served from (the compile service's per-response [cached] flag).
    Callers measuring compile time itself should call {!Driver.compile}
    directly. *)

val run_compiled :
  Driver.compiled ->
  Bs_workloads.Workload.t ->
  input:Bs_workloads.Workload.input ->
  metrics
(** Simulate an already-compiled workload on an arbitrary input. *)

val misspec_sites :
  Driver.compiled ->
  Bs_sim.Machine.result ->
  ((string * string * int) * int) list
(** Fold the run's per-pc misspeculation counts into per-source-site
    rows (((function, variable, line), count)) through the program's
    srcmap, most-frequent first.  Counts sum to the run's
    [ctr.misspecs]. *)

val pp_misspec_sites :
  Format.formatter -> ((string * string * int) * int) list -> unit
(** Print a [misspec_sites] histogram with its total. *)

val run_test :
  ?origin:Compile_cache.origin ref ->
  Driver.config ->
  Bs_workloads.Workload.t ->
  Driver.compiled * Bs_sim.Machine.result
(** Compile (via the compile cache) and simulate the workload's test
    input, with the raw result memoized per (config, source) — callers
    that need the execution itself (misspec attribution), callers that
    need metrics and the compile service share one simulation, run
    once per process under {!Driver.run_machine}'s default fuel.  A
    failure is memoized too.  [origin] is passed to
    {!compile_workload}.  Treat the result as read-only. *)

val run :
  ?profile_input:Bs_workloads.Workload.input ->
  ?profile_tag:string ->
  Driver.config ->
  Bs_workloads.Workload.t ->
  metrics
(** One-call experiment: compile under the configuration (cached, see
    {!compile_workload}), measure on the workload's test input.  Plain
    calls (no [profile_input]/[profile_tag]) route through {!run_test}
    and share its memoized simulation. *)

val reference_checksum :
  ?interp_engine:Bs_interp.Interp.engine -> Bs_workloads.Workload.t -> int64
(** The reference interpreter's checksum on the test input; every
    simulated build must reproduce it.  Computed once per process per
    (workload, engine).  [interp_engine] defaults to [Compiled]; the
    fault and intermittent-power campaigns pass [Tree] so the oracle for
    injected-fault runs stays on the engine with no compilation layer of
    its own.  A reference run that traps fails
    ({!Bs_support.Outcome.refuse_trap}). *)

val rel : float -> float -> float
(** [rel v base] = v / base (1 when base is 0). *)
