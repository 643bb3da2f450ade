(** The differential oracle.

    One source program is interpreted pristine (the reference) and
    compiled + simulated under every build configuration; any disagreement
    is classified into a stable {!Bs_support.Bucket.t}.  The oracle never
    raises: traps, fuel exhaustion, front-end rejections and pass
    failures ({!Driver.Failed}) all classify; both sides map their run's
    outcome through one function, so traps compare by kind. *)

open Bs_support
open Bitspec

type engine = { ename : string; config : Driver.config }

val engines : engine list
(** The configurations compared against the reference interpreter, in
    fixed order: baseline, bitspec-max, bitspec-avg, bitspec-min, thumb.
    The order makes the first-divergence bucket deterministic. *)

(** How one execution ended, coarsened for comparison. *)
type exec_obs =
  | Value of int64      (** finished; result masked to 32 bits *)
  | Fuel                (** instruction budget exhausted *)
  | Trap of string      (** trapped; the trap's {!Outcome.trap_name} *)

type verdict =
  | Agree of exec_obs
      (** every configuration matches the reference observation *)
  | Skip of string
      (** no ground truth: the reference ran out of fuel, or passed the
          interpreter's call-depth limit, which the machine lacks *)
  | Crash of { bucket : Bucket.t; details : string }
      (** a divergence; [details] is a human-readable account (values,
          traps, diagnostics) — never part of the bucket key *)

val run :
  ?plant:Driver.pass_fault ->
  ?fuel:int ->
  ?train:(string * int64 list) list ->
  ?engine:Bs_sim.Machine.engine ->
  source:string ->
  entry:string ->
  args:int64 list ->
  unit ->
  verdict
(** Run the full differential comparison.  [plant] injects a compiler
    fault into every configuration's compile (the planted-bug self-test);
    [fuel] bounds both the reference interpreter and each machine run
    (default 2,000,000); [train] is the profiling input (default: [entry]
    on {!Gen.train_args}); [engine] picks the machine dispatch engine
    (default [Jit]) — the verdict is invariant under it, so differencing
    verdicts across engines is itself an engine test. *)

val describe : verdict -> string

(** {1 Intermittent-power replay} *)

type power_verdict = {
  p_bucket : Bs_support.Bucket.t option;
      (** [None]: completed without a restore (nothing to triage) *)
  p_details : string;
}

val run_power :
  ?train:(string * int64 list) list ->
  ?engine:Bs_sim.Machine.engine ->
  source:string ->
  entry:string ->
  args:int64 list ->
  power:Corpus.power_meta ->
  unit ->
  power_verdict
(** Replay [source] under the recorded power-failure configuration and
    classify against the same binary's fault-free machine run
    ({!Campaign.classify_power}): correct checksum through [n > 0]
    restores ⇒ [restored], retry exhaustion ⇒ [reexec-livelock], fuel ⇒
    [hang], a trap ⇒ [trap-divergence:<name>], a wrong checksum ⇒
    [result-mismatch:power] (a checkpoint/restore bug). *)

val describe_power : power_verdict -> string

(** {1 Corpus replay} *)

val replay :
  ?engine:Bs_sim.Machine.engine ->
  Corpus.meta ->
  string ->
  string option * string
(** [replay meta source] replays a reproducer as its header says: under
    its recorded outage trace ({!run_power}) when it has a [power] line,
    else under the differential oracle ({!run}) with its planted fault.
    The profiling input is [meta.train] on [meta.entry]; the header's
    [bucket_key] is not read.  Returns the bucket key the replay lands
    in — [None] when it agrees, is skipped, or completes without a
    restore — and the verdict's description ({!describe},
    {!describe_power}).  [engine] is the machine's, as in {!run}. *)
