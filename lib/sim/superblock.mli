(** The BSARM machine's per-step semantics, and the superblock
    trace-JIT that fuses hot paths of them.

    The machine is defined twice, once per execution level:

    - {b The reference step} ({!step}): one instruction's full semantics —
      hazard checks, counter bumps, operation, successor PC — as one
      [match].  The dispatch table holds a closure per PC over it
      ({!bodies}).  Every step the trace-JIT does not fuse runs there,
      and so does every step of the [Classic] engine.

    - {b The superblock trace-JIT} ({!detect} + {!install_jit}): hot
      paths are fused — lazily, past {!promote_threshold} executions —
      into single closures.  A trace is a {e path}, not a contiguous
      range: it stitches straight-line runs together through
      unconditional jumps and calls, and through conditional branches
      predicted by a taken-direction heuristic that is kept only when it
      closes a loop back to the trace head.  Fused steps run
      counter-free: each exit carries a pre-computed {e delta ledger} of
      cycle/stall/energy constants flushed in one shot, instruction
      fetches are batched per cache line via {!Cache.bump_hits}, and a
      loop trace defers even the per-iteration flush until the loop
      finally exits.  Guard exits (misspeculation, a conditional going
      the unpredicted way, classic-mode slice use) flush their ledger
      and fall back to the dispatch loop.

    A fused trace is byte-identical in observable effect (counters,
    outcome, memory image, cache state) to the same steps run one by one
    through {!step}; the only sanctioned divergence is counter and cache
    state at a trap, which {!Machine} drops from its [Trapped] result,
    so no caller can observe it.  A
    fused trace runs fused every step below the event horizon
    ([ctx.horizon]), the next step at which the fuel limit, a fault, a
    stop, a checkpoint or an outage can strike, and leaves through a
    cut exit there; [Machine] runs that step through {!step} with the
    hooks. *)

exception Sim_trap of Bs_support.Outcome.trap
(** The machine's structured trap, raised by a step.  {!Machine.Sim_trap}
    rebinds this exception; a run returns it as a [Trapped] result. *)

(** {1 Timing constants (cycles)} *)

val l2_latency : int
val dram_latency : int
val branch_penalty : int
val mul_penalty : int
val div_penalty : int

(** {1 Architectural state} *)

type state = {
  regs : int array;  (** 32-bit values *)
  mutable pc : int;
  mutable delta : int;
  mutable mode : Bs_isa.Isa.mode;
  mutable halted : bool;
  mutable cmp_a : int;
  mutable cmp_b : int;
  mutable cmp_width8 : bool;
  mutable last_load_dest : int;
      (** register written by the previous load, [-1] if none *)
}

val mask32 : int -> int

(** {1 Dispatch context} *)

(** Everything a dispatch engine needs, bundled once per run. *)
type ctx = {
  st : state;
  ctr : Counters.t;
  mem : Bs_interp.Memimage.t;
  icache : Cache.t;
  dcache : Cache.t;
  l2 : Cache.t;
  pc_counts : (int, int) Hashtbl.t;
      (** misspeculation counts per faulting pc, shared with the
          machine's attribution table *)
  prog : Bs_backend.Asm.program;
  mutable horizon : int;
      (** the event horizon: the [ctr.instrs] value at which the next
          step needs a hook (fuel limit, fault, stop, checkpoint,
          outage).  The
          dispatch loop runs a step fused only while [ctr.instrs] is
          below it, and a fused trace runs up to it and leaves through a
          cut exit at the step that reaches it.  [Machine.run] moves it
          after each hooked step. *)
  on_dmiss : (int -> unit) option;
      (** called with the address of every D$ miss.  The caches start
          cold, so every line a run touches reaches it at least once:
          the run's data footprint. *)
}

val fetch : ctx -> int -> unit
(** Instruction fetch for [pc]: I$ → L2 → DRAM. *)

val stall_other : Counters.t -> int -> unit
(** Charge [n] stall cycles of no particular kind (memory latency,
    MUL/DIV penalties, checkpoint and restore). *)

(** {1 The reference step} *)

val step : ctx -> int -> Bs_isa.Isa.insn -> int
(** [step cx pc insn] executes [insn], the instruction at [pc], with
    every counter it bumps — hazard stalls, register-file and ALU
    activity, MUL/DIV penalties, loads and stores through the cache
    model, misspeculation (counted, attributed to [pc], redirected to
    [pc + Δ]) — leaves [st.last_load_dest] for the next step and
    returns the successor pc.
    Contract: the caller has already bounds-checked [pc], fetched it
    through the I$, charged one instruction and one cycle, checked fuel
    and counted the pc's spill/copy provenance.  A slice operation
    raises [Sim_trap Classic_mode_slice] in CLASSIC mode. *)

val bodies : ctx -> (unit -> int) array
(** The dispatch table: one closure per PC over {!step}, with the
    instruction decoded once and the spill/copy provenance counted on
    the PCs tagged with it.  A trace's fallback is its head's closure. *)

(** {1 Superblock trace-JIT} *)

type trace = {
  t_head : int;  (** = [t_pcs.(0)]; the dispatch slot the trace owns *)
  t_pcs : int array;
      (** the executed path: straight-line runs stitched together through
          interior unconditional jumps and forward conditionals
          (fall-through direction) *)
  t_stop : int;
      (** the first pc not on the path: a terminal branch to absorb into
          the fused exit, or the fall-through successor *)
}

val min_trace_len : int
val max_trace_len : int

val promote_threshold : int
(** Executions of a trace head before it is fused. *)

val fusible : Bs_isa.Isa.insn -> bool
(** Instructions that may join a trace: control always falls through them
    (misspeculation exits via a guard) and they cannot change the
    dispatch mode or Δ mid-trace.  Branches are not fusible but can still
    sit on a trace path: {!detect} follows unconditional jumps through
    and keeps forward conditionals as counted guard exits. *)

val detect : Bs_backend.Asm.program -> trace list
(** Static trace heads — block leaders of the straight-line CFG (entries,
    branch/call targets, fall-throughs, static misspeculation targets) —
    each extended along its superblock path: fusible instructions fall
    through, forward conditionals continue on the fall-through direction,
    and interior unconditional jumps are followed through (stitching the
    backend's trampolined blocks into whole loop bodies).  The walk ends
    at a dynamic successor, a backward conditional, a jump that would
    revisit the path, or the length cap.  Ascending head order; traces
    may overlap. *)

val install_jit : ctx -> (unit -> int) array -> (unit -> int) array
(** A dispatch table over [bodies] with a lazily-promoting profiling
    closure at every trace head.  A fused trace reads [cx.horizon] at
    entry and at each loop-back; when the horizon falls inside the pass,
    it runs fused up to it and hands the step at the horizon back to the
    dispatch loop, with every counter, the deferred I$ hits and
    [last_load_dest] as stepping would leave them. *)
