(** Activity counters — the simulator's equivalent of the paper's
    gate-level activity tracking, consumed by the energy model
    (Figure 9) and the microarchitectural breakdowns (Figures 10
    and 11).  All fields are mutable: the machine increments them in
    its fetch-execute loop. *)

type t = {
  mutable cycles : int;
  mutable instrs : int;  (** dynamic instructions *)
  mutable misspecs : int;
  mutable reg_read32 : int;  (** register file (Figure 11) *)
  mutable reg_read8 : int;
  mutable reg_write32 : int;
  mutable reg_write8 : int;
  mutable alu32 : int;  (** ALU activity *)
  mutable alu8 : int;
  mutable mul_ops : int;
  mutable div_ops : int;
  mutable loads : int;  (** memory *)
  mutable stores : int;
  mutable spill_loads : int;  (** spill traffic (Figure 10) *)
  mutable spill_stores : int;
  mutable copies : int;
  mutable stall_cycles : int;  (** stalls *)
  mutable branch_stalls : int;
  mutable load_use_stalls : int;
  mutable checkpoints : int;  (** intermittent-power execution *)
  mutable checkpoint_bytes : int;
      (** register file + control state + dirty memory flushed *)
  mutable restores : int;
  mutable reexec_instrs : int;
      (** subset of [instrs] re-executed after power-fail restores *)
  mutable livelock_degrades : int;
      (** times the checkpoint policy fell back to checkpoint-every-store *)
  mutable wall_ns : int;
      (** host wall-clock nanoseconds the simulator spent on this run.
          Non-deterministic, so excluded from {!to_assoc}; the input of
          {!simulated_mips}. *)
}

val create : unit -> t
(** All counters at zero. *)

val add : into:t -> t -> unit
(** [add ~into t] accumulates every field of [t] into [into]
    ([wall_ns] included, so aggregated counters keep a meaningful
    {!simulated_mips}). *)

val simulated_mips : t -> float
(** Simulated millions of instructions per host wall-clock second —
    [instrs / wall_ns * 1000].  [0.0] when the run carries no timing. *)

val to_assoc : t -> (string * int) list
(** Every counter as a (name, value) row, in declaration order — a
    stable shape for metric dumps and JSON emission.  [wall_ns] is
    excluded: it is host-dependent, and this dump stays byte-identical
    across runs and [--jobs] values. *)
