(** Closure-compiled dispatch engines for the BSARM machine model.

    Two layers, both built once per run:

    - {b Direct-threaded dispatch} ({!compile_bodies}): every PC is
      pre-decoded into a closure of type [unit -> int] performing the
      instruction's full semantics — hazard checks, counters, operation —
      and returning the successor PC.  The hot loop becomes one indirect
      call per step instead of a constructor match plus operand decode.

    - {b Superblock trace-JIT} ({!detect} + {!install_jit}): hot paths
      are fused — lazily, past {!promote_threshold} executions — into
      single closures.  A trace is a {e path}, not a contiguous range: it
      stitches straight-line runs together through unconditional jumps
      and calls, and through conditional branches predicted by a
      taken-direction heuristic that is kept only when it closes a loop
      back to the trace head.  Fused steps run counter-free: each exit
      carries a pre-computed {e delta ledger} of cycle/stall/energy
      constants flushed in one shot, instruction fetches are batched per
      cache line via {!Cache.bump_hits}, and a loop trace defers even the
      per-iteration flush until the loop finally exits.  Guard exits
      (misspeculation, a conditional going the unpredicted way, the
      event horizon, classic-mode slice use) flush their ledger and fall
      back to the threaded loop.

    Both engines are byte-identical in observable effect (counters,
    outcome, memory image, cache state) to the classic interpreter loop
    in {!Machine}; the only sanctioned divergence is counter state at the
    moment an exception escapes, which no caller can observe.  Faults and
    power traces do not turn the JIT off: a fused trace runs only if all
    its steps lie below the event horizon ([ctx.horizon]), the next step
    at which the fuel limit, a fault, a checkpoint or an outage can
    strike, and the dispatch loop runs that step on its threaded body
    with the hooks. *)

exception Sim_trap of Bs_support.Outcome.trap
(** The machine's structured trap.  {!Machine.Sim_trap} rebinds this
    exception, so the two are interchangeable. *)

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
  mutable next : int;
      (** in-flight successor PC; used by the classic loop only — bodies
          return the successor instead *)
  mutable delta : int;
  mutable mode : Bs_isa.Isa.mode;
  mutable halted : bool;
  mutable cmp_a : int;
  mutable cmp_b : int;
  mutable cmp_width8 : bool;
  mutable last_load_dest : int;
      (** register written by the previous load, [-1] if none *)
  mutable loaded : int;
      (** load destination of the current step; classic loop only —
          bodies write [last_load_dest] directly *)
}

val mask32 : int -> int
val read_reg : state -> Counters.t -> int -> int
val write_reg : state -> Counters.t -> int -> int -> unit
val read_slice : state -> Counters.t -> Bs_isa.Isa.slice -> int
val write_slice : state -> Counters.t -> Bs_isa.Isa.slice -> int -> unit
val eval_cond : state -> Bs_isa.Isa.cond -> bool

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
          below it, and a fused trace runs only if it ends at or before
          it.  [Machine.run] moves it after each hooked step. *)
  on_dmiss : (int -> unit) option;
      (** called with the address of every D$ miss.  The caches start
          cold, so every line a run touches reaches it at least once:
          the run's data footprint. *)
}

val mem_access : ctx -> int -> unit
(** Data access: D$ → L2 → DRAM, charging latency stalls. *)

val fetch : ctx -> int -> unit
(** Instruction fetch for [pc]: I$ → L2 → DRAM. *)

val misspec : ctx -> int -> int
(** Misspeculation at [pc]: count, attribute, pay the redirect penalty,
    return [pc + Δ]. *)

(** {1 Direct-threaded dispatch} *)

val compile_bodies : ctx -> (unit -> int) array
(** One closure per PC.  Contract: the dispatch loop has already
    bounds-checked the pc, fetched it through the I$, charged one
    instruction and one cycle, and checked fuel; the body performs the
    instruction (hazards, counters, semantics, [last_load_dest]) and
    returns the successor pc. *)

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
    entry and at each loop-back, and hands control back to the dispatch
    loop rather than execute the step at the horizon. *)
