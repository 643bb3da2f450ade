(** Fault-injection campaigns over built-in workloads.

    A campaign compiles the workload, establishes the fault-free machine
    run and the reference interpreter's checksum (the differential
    oracle), then replays the test input N times, each with one seeded
    single-bit flip, and tabulates {!Bs_sim.Faultinject}'s
    masked / detected / trapped / sdc / hung classification.  Fixed seed
    ⇒ identical trials, bit for bit: the whole fault list is drawn from
    the seed before any trial runs, so a parallel campaign ([jobs] > 1)
    is byte-identical to a sequential one. *)

type t = {
  workload : string;
  arch : Driver.arch;
  seed : int64;
  golden_instrs : int;     (** fault-free dynamic instruction count *)
  golden_misspecs : int;   (** fault-free misspeculation count *)
  expected : int64;        (** the reference interpreter's checksum *)
  trials : Bs_sim.Faultinject.trial list;
}

val run :
  ?config:Driver.config ->
  ?jobs:int ->
  trials:int ->
  seed:int64 ->
  Bs_workloads.Workload.t ->
  t
(** Run an N-trial campaign (default config: the BITSPEC build).
    [jobs] (default 1) fans the trials out over a domain pool; the
    result does not depend on it. *)

val report : ?max_examples:int -> t -> string
(** Human-readable classification table, plus the faults the
    misspeculation hardware caught. *)

val arch_name : Driver.arch -> string

val sharded : jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** The campaign fan-out engine: map pre-drawn (randomness-free) work
    over the pool in fixed-size shards.  Results are in input order and
    byte-identical at any [jobs]. *)

(** {1 Intermittent-power campaigns} *)

(** Per-trial classification of a run under injected power failures.
    Restores roll architectural state back exactly, so [P_sdc] (finished,
    wrong checksum) indicates a checkpoint/restore bug — the campaign
    doubles as the rollback machinery's own test. *)
type power_verdict =
  | P_completed           (** finished correctly, no outage struck *)
  | P_restored of int     (** finished correctly through [n] restores *)
  | P_sdc of int64        (** finished with a wrong checksum *)
  | P_trapped of Bs_support.Outcome.trap
  | P_hung                (** exceeded the re-execution fuel budget *)
  | P_livelock            (** the retry limit gave up (Outcome.Livelock) *)

type power_trial = {
  pt_seed : int64;             (** this trial's power-trace seed *)
  pt_verdict : power_verdict;
  pt_restores : int;
  pt_checkpoints : int;
  pt_ckpt_bytes : int;
  pt_reexec : int;             (** re-executed (wasted) instructions *)
  pt_instrs : int;
  pt_run_energy : float;       (** the execution breakdown's total *)
  pt_ckpt_energy : float;      (** checkpoint writes + restore cost *)
  pt_reexec_energy : float;    (** re-executed share of the run energy *)
}

type power_campaign = {
  p_workload : string;
  p_dist : Bs_sim.Powertrace.dist;
  p_policy : Bs_sim.Checkpoint.policy;
  p_retries : int;
  p_seed : int64;
  p_golden_instrs : int;
  p_golden_energy : float;
  p_expected : int64;
  p_trials : power_trial list;
}

val power_bucket : power_verdict -> string
(** The shared triage key ({!Bs_support.Bucket} namespace): "completed",
    "restored", "reexec-livelock", "hang", "sdc", "trapped:<name>". *)

val classify_power : expected:int64 -> Bs_sim.Machine.result -> power_verdict
(** A power run's verdict against the fault-free checksum [expected];
    the fuzz oracle's power replay classifies through it too. *)

val hot_pcs_of : Bs_backend.Asm.program -> int list
(** The pcs with a source site in the program's srcmap, ascending — the
    speculative sites an adversarial ([hotpc]) power trace strikes. *)

val run_power :
  ?config:Driver.config ->
  ?jobs:int ->
  ?policy:Bs_sim.Checkpoint.policy ->
  ?retries:int ->
  dist:Bs_sim.Powertrace.dist ->
  trials:int ->
  seed:int64 ->
  Bs_workloads.Workload.t ->
  power_campaign
(** Run [trials] intermittent-power executions, each under a fresh
    seeded {!Bs_sim.Powertrace} (per-trial seeds drawn up front from
    [seed]).  Defaults: checkpoint every 500 instructions, 8 retries.
    Byte-identical at any [jobs]. *)

val power_report : power_campaign -> string
(** The harvest report: bucket tally plus restore/checkpoint means and
    the checkpoint / re-execution energy overheads. *)

(** {1 Predicted-vs-measured bit-level validation} *)

type bit_row = {
  v_bit : int;
  v_trials : int;
  v_masked : int;     (** measured masked count at this bit *)
  v_caught : int;     (** measured detected count *)
  v_corrupt : int;    (** measured sdc + trapped + hung *)
}

type validation = {
  v_workload : string;
  v_seed : int64;
  v_pred : Bs_analysis.Vulnerability.t;
  v_rows : bit_row array;  (** 32 rows, one per register bit *)
  v_agreement : float;     (** trial-weighted dominant-class agreement, % *)
}

val measured_class :
  Bs_sim.Faultinject.verdict -> Bs_analysis.Vulnerability.clazz
(** Fold a measured injection verdict onto the analysis's three-class
    lattice: Detected ⇒ caught; Sdc, Trapped and Hung ⇒ corrupt. *)

val validate :
  ?config:Driver.config ->
  ?jobs:int ->
  trials:int ->
  seed:int64 ->
  Bs_workloads.Workload.t ->
  validation
(** Cross-validate {!Bs_analysis.Vulnerability} against a measured
    register-flip campaign: every trial flips one register bit, sampling
    that bit position's measured class distribution. *)

val validation_report : validation -> string
(** Per-bit predicted-vs-measured table plus the agreement summary. *)
