(** The BSARM machine model (§3.5): a 32-bit, single-issue, in-order
    6-stage pipeline with the BITSPEC misspeculation hardware.

    Register slices alias register bytes exactly as in hardware.  The
    slice ALU detects misspeculation from carry/overflow at the slice
    boundary; on misspeculation the result is not written and the PC is
    displaced by the Δ special register, landing on the skeleton branch
    that reaches the current region's handler (§3.3.4).

    Timing: 1 cycle per instruction, +2 for taken branches, +1 for
    load-use hazards, +2 MUL, +10 DIV, plus the memory hierarchy (L1 hit
    0, L2 8, DRAM 60 extra cycles).

    The model is written twice, once per execution level: the reference
    step ({!Superblock.step}) and the trace-JIT's fused traces with their
    static counter ledgers.  One loop runs both; the two {!engine}s
    differ only in which steps it may fuse. *)

exception Sim_trap of Bs_support.Outcome.trap
(** The trap a step raises.  {!run} and {!resume} return it as the
    [Trapped] outcome; only {!start} raises it, for an unknown entry.
    (The same exception as {!Superblock.Sim_trap}.) *)

(** Single-bit soft-error injection (the fault model of the resilience
    harness): one flip, applied just before the [at_instr]-th dynamic
    instruction executes. *)
type fault_target =
  | Flip_reg of int * int
      (** [(reg, bit)], bit 0-31; bits [8k..8k+7] alias slice [(reg, k)] *)
  | Flip_mem of int * int   (** [(byte address, bit)], bit 0-7 *)
  | Flip_delta of int       (** bit of the Δ redirect register *)

type fault = { at_instr : int; target : fault_target }

(** Intermittent-power execution: run under a seeded outage trace with a
    checkpoint policy.  On an outage the machine rolls back to the last
    checkpoint (registers via {!Checkpoint.saved}, memory via the
    {!Bs_interp.Memimage} undo journal) and re-executes.  [max_retries]
    consecutive restores without an intervening checkpoint degrade the
    policy to additionally checkpoint before every store; twice that
    gives up with the [Livelock] outcome.  Checkpoint and restore costs
    are charged to the cycle counter and tracked in {!Counters}
    ([checkpoints], [checkpoint_bytes], [restores], [reexec_instrs],
    [livelock_degrades]). *)
type power = {
  trace : Powertrace.t;
  policy : Checkpoint.policy;
  max_retries : int;
}

(** Dispatch engine.  Both produce byte-identical results — counters,
    outcome, memory image, cache state; they differ only in host
    wall-clock speed ([Counters.wall_ns] / [simulated_mips]).  Both are
    one loop over the same per-PC closures around the reference step
    ({!Superblock.step}), with different event horizons.

    - [Classic]: the horizon pinned at [min_int], so every step runs
      through the reference step with the hooks and nothing is fused.
      The baseline [Jit] is differenced against.
    - [Jit]: the superblock trace-JIT ({!Superblock}) fuses hot
      straight-line runs into single closures with guard exits and runs
      every other step through the reference step.  Power traces and
      fault injection keep the fusion: traces run up to the next step at
      which the fuel limit, the fault, an [Interval] checkpoint or an
      outage can strike, and that step runs with the hooks.  [Pre_store]
      and [Pre_speculation] policies, and livelock-degraded runs, hook
      every step. *)
type engine = Classic | Jit

type config = {
  mode : Bs_isa.Isa.mode;  (** Classic disables the slice extension (§3.4) *)
  fuel : int;              (** dynamic instruction budget *)
  fault : fault option;    (** inject one bit flip during the run *)
  power : power option;    (** run under injected power failures *)
  engine : engine;         (** dispatch engine; results are identical *)
}

val default_config : config
(** Bitspec mode, 10^9 fuel, no fault, no power failures, [Jit] engine. *)

type result = {
  r0 : int64;          (** the return register after HALT *)
  outcome : Bs_support.Outcome.t;
      (** [Finished], [Out_of_fuel] ([r0] is then meaningless),
          [Livelock] or [Trapped].  A trapped result carries the trap
          and no activity ([r0] 0, zero counters, empty caches, no
          [misspec_pcs]), so it is the same under either engine. *)
  fault_applied : bool;   (** the configured fault's trigger was reached *)
  ctr : Counters.t;    (** activity counters (figures 8-11), plus the
                           host [wall_ns] feeding [simulated_mips] *)
  icache : Cache.t;
  dcache : Cache.t;
  l2 : Cache.t;
  misspec_pcs : (int * int) list;
      (** (pc, count) per misspeculating instruction, sorted by pc; the
          counts sum to [ctr.misspecs].  Resolve each pc to its source
          variable/line via [Bs_backend.Asm.program.srcmap]. *)
}

val run :
  ?config:config ->
  Bs_backend.Asm.program ->
  Bs_interp.Memimage.t ->
  entry:string ->
  args:int64 list ->
  result
(** Execute [entry] with the stack-args calling convention until the
    bootstrap HALT.  Arguments are pushed onto the simulated stack; the
    result is read from R0.  Fuel exhaustion is the [Out_of_fuel]
    outcome and every trap, an unknown entry or a memory fault included,
    is [Trapped].  A power run disarms its undo journal however it
    ends. *)

(** {1 Runs that start mid-way and stop early}

    The exact fault trials of {!Faultinject} fork from snapshots of the
    fault-free run and stop once they rejoin it. *)

(** Architectural state between two steps: everything the next step can
    read except memory and the load-use latch, which only times. *)
type arch = {
  a_instrs : int;  (** instructions executed so far *)
  a_misspecs : int;
  a_regs : int array;
  a_pc : int;  (** the next instruction *)
  a_delta : int;
  a_mode : Bs_isa.Isa.mode;
  a_cmp_a : int;
  a_cmp_b : int;
  a_cmp_width8 : bool;
}

val start :
  mode:Bs_isa.Isa.mode ->
  Bs_backend.Asm.program ->
  Bs_interp.Memimage.t ->
  entry:string ->
  args:int64 list ->
  arch
(** The state {!run} starts from: writes the arguments onto the image's
    stack.  @raise Sim_trap for an unknown entry. *)

val capture : Superblock.state -> Counters.t -> arch
(** A copy of the state a stop sees. *)

val resume :
  fuel:int ->
  fault:fault option ->
  ?on_dmiss:(int -> unit) ->
  stop_at:int ->
  (Superblock.state -> Counters.t -> int option) ->
  Bs_backend.Asm.program ->
  Bs_interp.Memimage.t ->
  arch ->
  result option
(** [resume ~fuel ~fault ~stop_at at_stop p mem a] runs the [Jit] loop
    from [a] on [mem], which must hold the memory of that point.  The
    instruction and misspeculation counts carry on from [a]; every other
    counter, the caches and [misspec_pcs] start empty.  Stop counts are
    a source of the event horizon: once [ctr.instrs] reaches [stop_at],
    between two steps, [at_stop] sees the state and returns the next
    stop count (above the current one), or [None] to end the run there,
    which then returns [None].  Without a stop it returns {!run}'s
    result, a trap included.  [on_dmiss] is called with the address of
    every D$ miss. *)
