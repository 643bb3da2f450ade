(** Reference interpreter for SIR.

    Three roles: reference semantics for differential testing of the whole
    pipeline; the bitwidth profiler of §3.2.2 (via [profile]); and
    speculative execution of squeezed code — a [!speculative] instruction
    inside a speculative region that violates its Table 1 misspeculation
    condition redirects control to the region's handler without committing
    its result, exactly like the hardware. *)

exception Trap of Bs_support.Outcome.trap
(** Raised only by {!eval_binop}; a run reports every trap as its
    [Trapped] outcome instead. *)

(** The interpreter has one engine: it pre-compiles each function body
    to fused closures, per block and phi-resolved per incoming edge, with
    operand reads, width truncation, misspeculation guards and profiling
    hooks baked in at compile time.  Each closure evaluates through the
    same per-operation functions as {!eval_binop}, {!eval_cmp} and
    {!misspeculates}.

    [engine] selects nothing: {!exec} never reads it.  It remains, with
    the [opts] field below, only because the frozen benchmark harness
    (perfbench) names [Tree] and sets the field; both are deleted at the
    benchmark's next change. *)
type engine = Tree | Compiled

type opts = {
  profile : Profile.t option;  (** record per-variable bitwidth statistics *)
  fuel : int;
      (** dynamic IR instruction budget: a run of exactly [fuel] steps
          finishes, the next step ends it [Out_of_fuel] *)
  engine : engine;  (** unread; see {!engine} *)
}

val default_opts : opts

type result = {
  ret : int64 option;  (** the entry function's return value *)
  steps : int;         (** dynamic IR instructions executed *)
  misspecs : int;      (** misspeculation events *)
  calls : int;         (** function invocations *)
  outcome : Bs_support.Outcome.t;
      (** [Finished], [Out_of_fuel] or [Trapped]; [ret] is [None] unless
          the run finished.  A trapped result reports no activity (zero
          counts). *)
}

val eval_binop : Bs_ir.Ir.binop -> int -> int64 -> int64 -> int64
(** [eval_binop op width a b] — the IR's arithmetic, defined once: the
    engine executes it and constant folding calls it, so folding can
    never disagree with execution.  Arithmetic results are truncated to
    [width]; [And]/[Or]/[Xor] of in-width operands are in width.
    @raise Trap [Division_by_zero] on division or remainder by zero. *)

val eval_cmp : Bs_ir.Ir.cmpop -> int -> int64 -> int64 -> int64
(** Comparison at the given operand width (unsigned predicates on the
    truncated operands, signed ones on their sign extensions); returns 0
    or 1.  The engine executes the same definition. *)

val misspeculates : Bs_ir.Ir.instr -> int64 list -> int64 -> bool
(** Table 1's misspeculation conditions at the IR level, given the
    instruction, its operand values, and its (truncated) result, which
    no condition reads: a slice [Add]/[Sub] misspeculates when its exact
    result is negative or does not fit [Width.fits] the slice, a slice
    [TruncCast] when its source does not fit; nothing else ever does.
    The engine's guards test the same definition. *)

val exec :
  ?opts:opts ->
  Bs_ir.Ir.modul ->
  entry:string ->
  args:int64 list ->
  Memimage.t ->
  result
(** Execute [entry] on an existing memory image (mutating it).  Every
    trap, its kind fixed where it happens, ends the run as [Trapped]. *)

val run_fresh :
  ?opts:opts ->
  ?setup:(Memimage.t -> unit) ->
  ?mem_size:int ->
  Bs_ir.Ir.modul ->
  entry:string ->
  args:int64 list ->
  result * Memimage.t
(** Build a fresh memory image for the module, apply [setup], execute, and
    return the result together with the final memory.  Only building
    the image raises ([Memimage.Fault]). *)
