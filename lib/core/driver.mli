(** The BITSPEC compilation driver (the paper's Figure 4 pipeline).

    [compile] takes MiniC source through the front-end, the expander
    (§3.2.1), CFG preparation (§3.2.3 pass ①), profile-guided squeezing
    (passes ②③), the BITSPEC-specific optimisations, and the back-end to a
    linked binary image; [run_machine] executes that image on the
    cycle-level machine model.

    Failure policy: fail-fast.  The first pass that raises stops the
    compile with {!Failed}, a structured {!Bs_support.Diag.t} carrying the
    phase's stable code; front-end errors escape as they are. *)

(** Target architectures: the paper's BASELINE processor, the processor
    with the BITSPEC ISA/microarchitecture extensions, and the
    compact-ISA comparison point of RQ9. *)
type arch = Baseline | Bitspec_arch | Thumb

type config = {
  arch : arch;
  heuristic : Bs_interp.Profile.heuristic;  (** T = MAX / AVG / MIN (§3.2.2) *)
  expander : Expander.config;               (** inlining/unrolling budgets *)
  speculate : bool;  (** [false] = RQ2's no-speculation variant *)
  compare_elim : bool;   (** §3.2.4 *)
  bitmask_elide : bool;  (** RQ3's second ablation *)
  orig_first : bool;
      (** RQ5: invert the allocator's handler branch weights so CFG_orig
          gets first pick of registers *)
}

val bitspec_config : config
(** The paper's default BITSPEC build: T = MAX, expander on, both
    optimisations enabled. *)

val baseline_config : config
(** The BASELINE build: conventional ISA, no speculation. *)

val thumb_config : config
(** RQ9's compact-ISA build: 8 registers, 2-address operations. *)

val config_of :
  arch:arch -> heuristic:Bs_interp.Profile.heuristic -> no_expander:bool ->
  config
(** The default build for [arch] with the given heuristic, and with the
    expander disabled when [no_expander] — the configurations the CLI
    flags and the compile service's bench requests name. *)

val config_tag : config -> string
(** An injective rendering of every code-affecting field — the
    configuration half of a {!Compile_cache} key (and the bench
    harness's cell keys). *)

val expander_tag : config -> string
(** The expander-only slice of {!config_tag}.  Configurations with
    equal expander tags shape identical pre-squeeze modules from the
    same source, so their training runs observe identical profiles —
    the configuration half of a [profile_key] (see {!compile}). *)

(** Compiler-level fault injection: force one pass to fail on one
    function, exercising the failure path end to end.  [Fault_squeeze]
    and [Fault_regalloc] raise inside the pass, so the compile stops with
    [BS-SQZ-01] or [BS-RA-01]; [Fault_miscompile] silently flips one
    operation of the function {e after} all passes and verification,
    planting a genuine miscompile that only differential testing can
    observe — the fuzz subsystem's self-test. *)
type injected_pass = Fault_squeeze | Fault_regalloc | Fault_miscompile

type pass_fault = { fault_pass : injected_pass; fault_func : string }

exception Injected_fault of string

type compiled = {
  ir : Bs_ir.Ir.modul;                      (** the final (squeezed) SIR *)
  program : Bs_backend.Asm.program;         (** linked binary image *)
  config : config;
  profile : Bs_interp.Profile.t option;     (** the training profile used *)
  squeeze_stats : Squeezer.stats option;
  remarks : Bs_obs.Remark.t list;
      (** optimisation remarks from the squeezer, compare elimination
          and bitmask elision, in canonical ({!Bs_obs.Remark.compare})
          order — identical at any job count *)
}

exception Failed of Bs_support.Diag.t
(** A pass failed and stopped the compile.  The diagnostic's code names
    the phase: [BS-EXP-01] expander, [BS-CFG-01] CFG preparation,
    [BS-PRO-01] training run, [BS-SQZ-01] squeezing (naming the function),
    [BS-CEL-01] compare elimination, [BS-BME-01] bitmask elision,
    [BS-OPT-01] late optimisations, [BS-VRF-01] post-squeeze verification
    and [BS-RA-01] back-end (naming the function).  [Printexc.to_string]
    renders it as {!Bs_support.Diag.to_string} does. *)

val diag_of_exn : exn -> Bs_support.Diag.t
(** The diagnostic of a failed compile: [Failed]'s own, or a [BS-FE-01]
    for anything else (front-end errors keep their phase and source
    line). *)

val profile_module :
  Bs_ir.Ir.modul ->
  ?setup:(Bs_ir.Ir.modul -> Bs_interp.Memimage.t -> unit) ->
  train:(string * int64 list) list ->
  unit ->
  Bs_interp.Profile.t
(** [profile_module m ~train ()] interprets [m] on each [(entry, args)]
    training run, recording per-variable bitwidth statistics (§3.2.2).
    [setup] initialises workload input data in each run's memory image.
    The runs take the interpreter's default engine ([Compiled]); the
    recorded profile is engine-invariant (test_interp_engines.ml).  A
    training run that traps fails ({!Bs_support.Outcome.refuse_trap}). *)

val compile :
  ?pass_fault:pass_fault ->
  ?profile_key:string ->
  config:config ->
  source:string ->
  ?setup:(Bs_ir.Ir.modul -> Bs_interp.Memimage.t -> unit) ->
  train:(string * int64 list) list ->
  unit ->
  compiled
(** Full pipeline from MiniC source.  [train] and [setup] drive the
    profiler; they are ignored by non-speculative configurations.
    A pass failure raises {!Failed}; front-end errors ([Lexer.Error],
    [Parser.Error], [Typecheck.Error], [Lower.Error]) raise as they are.
    [pass_fault] injects a compiler fault for testing.

    [profile_key] opts the training run into a process-wide memo:
    profiling is heuristic-independent, so configurations that share a
    pre-squeeze form (a MAX/AVG/MIN sweep) reuse one run.  The caller
    must content-address everything the profile depends on — source,
    {!expander_tag}, training entries/args, the profile input's
    identity — and the resulting {!Profile.t} is shared, read-only. *)

val try_compile :
  ?pass_fault:pass_fault ->
  config:config ->
  source:string ->
  ?setup:(Bs_ir.Ir.modul -> Bs_interp.Memimage.t -> unit) ->
  train:(string * int64 list) list ->
  unit ->
  (compiled, Bs_support.Diag.t list) result
(** {!compile} that never raises: [Error] carries the one diagnostic
    {!diag_of_exn} gives the failure (front-end failures included). *)

val machine_mode : compiled -> Bs_isa.Isa.mode
(** [Bitspec] exactly for [Bitspec_arch] builds: the mode of
    {!run_machine} and of the fault campaigns' trials. *)

val run_machine :
  ?setup:(Bs_interp.Memimage.t -> unit) ->
  ?fuel:int ->
  ?fault:Bs_sim.Machine.fault ->
  ?power:Bs_sim.Machine.power ->
  ?engine:Bs_sim.Machine.engine ->
  compiled ->
  entry:string ->
  args:int64 list ->
  Bs_sim.Machine.result
(** Simulate the compiled binary on a fresh memory image.  [setup] fills
    workload inputs; [fuel] bounds dynamic instructions; [fault] injects a
    single bit flip mid-run; [power] runs under injected power failures
    with checkpoint/restore; [engine] picks the dispatch engine (default
    [Jit]; results are identical across engines).  A trap is the
    [Trapped] outcome; only building the image raises. *)
