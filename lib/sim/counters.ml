(* Activity counters — the simulator's equivalent of the paper's
   gate-level activity tracking, consumed by the energy model (Figure 9)
   and the microarchitectural breakdowns (Figures 10 and 11). *)

type t = {
  mutable cycles : int;
  mutable instrs : int;                (* dynamic instructions *)
  mutable misspecs : int;
  (* register file (Figure 11) *)
  mutable reg_read32 : int;
  mutable reg_read8 : int;
  mutable reg_write32 : int;
  mutable reg_write8 : int;
  (* ALU activity *)
  mutable alu32 : int;
  mutable alu8 : int;
  mutable mul_ops : int;
  mutable div_ops : int;
  (* memory *)
  mutable loads : int;
  mutable stores : int;
  (* spill traffic (Figure 10) *)
  mutable spill_loads : int;
  mutable spill_stores : int;
  mutable copies : int;
  (* stalls *)
  mutable stall_cycles : int;
  mutable branch_stalls : int;
  mutable load_use_stalls : int;
  (* intermittent-power execution: checkpoint/restore traffic.
     [reexec_instrs] is the subset of [instrs] that was re-executed after
     a power-fail restore — wasted work, costed separately by the energy
     model. *)
  mutable checkpoints : int;
  mutable checkpoint_bytes : int;   (* register file + control + dirty memory *)
  mutable restores : int;
  mutable reexec_instrs : int;
  mutable livelock_degrades : int;  (* policy fell back to checkpoint-every-store *)
  (* host wall-clock time the simulator spent producing these counters
     (nanoseconds).  Deliberately EXCLUDED from [to_assoc]: it is
     non-deterministic, and the counter dump must stay byte-identical
     across runs and --jobs values.  [simulated_mips] derives from it. *)
  mutable wall_ns : int;
}

let create () =
  { cycles = 0; instrs = 0; misspecs = 0;
    reg_read32 = 0; reg_read8 = 0; reg_write32 = 0; reg_write8 = 0;
    alu32 = 0; alu8 = 0; mul_ops = 0; div_ops = 0;
    loads = 0; stores = 0;
    spill_loads = 0; spill_stores = 0; copies = 0;
    stall_cycles = 0; branch_stalls = 0; load_use_stalls = 0;
    checkpoints = 0; checkpoint_bytes = 0; restores = 0; reexec_instrs = 0;
    livelock_degrades = 0; wall_ns = 0 }

(* Field-wise accumulation, used to total counters across runs. *)
let add ~into t =
  into.cycles <- into.cycles + t.cycles;
  into.instrs <- into.instrs + t.instrs;
  into.misspecs <- into.misspecs + t.misspecs;
  into.reg_read32 <- into.reg_read32 + t.reg_read32;
  into.reg_read8 <- into.reg_read8 + t.reg_read8;
  into.reg_write32 <- into.reg_write32 + t.reg_write32;
  into.reg_write8 <- into.reg_write8 + t.reg_write8;
  into.alu32 <- into.alu32 + t.alu32;
  into.alu8 <- into.alu8 + t.alu8;
  into.mul_ops <- into.mul_ops + t.mul_ops;
  into.div_ops <- into.div_ops + t.div_ops;
  into.loads <- into.loads + t.loads;
  into.stores <- into.stores + t.stores;
  into.spill_loads <- into.spill_loads + t.spill_loads;
  into.spill_stores <- into.spill_stores + t.spill_stores;
  into.copies <- into.copies + t.copies;
  into.stall_cycles <- into.stall_cycles + t.stall_cycles;
  into.branch_stalls <- into.branch_stalls + t.branch_stalls;
  into.load_use_stalls <- into.load_use_stalls + t.load_use_stalls;
  into.checkpoints <- into.checkpoints + t.checkpoints;
  into.checkpoint_bytes <- into.checkpoint_bytes + t.checkpoint_bytes;
  into.restores <- into.restores + t.restores;
  into.reexec_instrs <- into.reexec_instrs + t.reexec_instrs;
  into.livelock_degrades <- into.livelock_degrades + t.livelock_degrades;
  into.wall_ns <- into.wall_ns + t.wall_ns

(* Simulated millions of instructions per host second.  0 when the run
   carries no timing (wall_ns = 0), e.g. counters built by hand. *)
let simulated_mips t =
  if t.wall_ns <= 0 then 0.0
  else float_of_int t.instrs *. 1000.0 /. float_of_int t.wall_ns

(* Stable field order, for metric dumps and JSON emission.  [wall_ns] is
   intentionally absent: it is host-dependent, and this dump must be
   byte-identical across runs (the jobs-invariance smokes compare it). *)
let to_assoc t =
  [ ("cycles", t.cycles);
    ("instrs", t.instrs);
    ("misspecs", t.misspecs);
    ("reg_read32", t.reg_read32);
    ("reg_read8", t.reg_read8);
    ("reg_write32", t.reg_write32);
    ("reg_write8", t.reg_write8);
    ("alu32", t.alu32);
    ("alu8", t.alu8);
    ("mul_ops", t.mul_ops);
    ("div_ops", t.div_ops);
    ("loads", t.loads);
    ("stores", t.stores);
    ("spill_loads", t.spill_loads);
    ("spill_stores", t.spill_stores);
    ("copies", t.copies);
    ("stall_cycles", t.stall_cycles);
    ("branch_stalls", t.branch_stalls);
    ("load_use_stalls", t.load_use_stalls);
    ("checkpoints", t.checkpoints);
    ("checkpoint_bytes", t.checkpoint_bytes);
    ("restores", t.restores);
    ("reexec_instrs", t.reexec_instrs);
    ("livelock_degrades", t.livelock_degrades) ]
