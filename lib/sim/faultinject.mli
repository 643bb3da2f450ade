(** Deterministic single-bit fault injection (soft-error model).

    Faults are drawn from a seeded splitmix64 stream and applied by the
    machine model mid-run ({!Machine.config}'s [fault]); each run is
    classified against the fault-free execution and the reference
    checksum.  The interesting bucket is [Detected]: the flip pushed a
    value out of its slice, the BITSPEC overflow detector caught it, and
    the misspeculation handler's full-width re-execution repaired the
    damage — recovery hardware acting as a free soft-error net. *)

type verdict =
  | Masked                            (** correct result, no hardware event *)
  | Detected of int
      (** correct result recovered through [n] extra misspeculations *)
  | Trapped of Bs_support.Outcome.trap  (** died on a structured trap *)
  | Sdc of int64                      (** silent data corruption (bad checksum) *)
  | Hung                              (** fuel budget exhausted *)

type trial = { tfault : Machine.fault; verdict : verdict }

val verdict_name : verdict -> string
val verdict_names : string list
(** The five classification buckets, in table order. *)

val describe_fault : Machine.fault -> string
val describe_trial : trial -> string

val gen_fault :
  Bs_support.Rng.t -> max_instr:int -> mem_lo:int -> mem_hi:int ->
  Machine.fault
(** Draw one fault: a dynamic instruction index in [\[1, max_instr\]] and
    a target (register bit, memory bit in [\[mem_lo, mem_hi\]], or a Δ
    bit). *)

val gen_reg_fault :
  Bs_support.Rng.t -> max_instr:int -> Machine.fault
(** Draw a register-bit flip only — the population the bit-level
    vulnerability validation samples, where every trial maps to one
    register bit position. *)

val run_trial :
  mode:Bs_isa.Isa.mode ->
  fuel:int ->
  program:Bs_backend.Asm.program ->
  mem:(unit -> Bs_interp.Memimage.t) ->
  entry:string ->
  args:int64 list ->
  expected:int64 ->
  golden_misspecs:int ->
  Machine.fault ->
  trial
(** Run the program once with the fault injected ([mem] must build a fresh
    image per call; it is called once) and classify the outcome against
    [expected] (the reference checksum) and [golden_misspecs] (the
    fault-free misspeculation count).  Never raises: traps become
    [Trapped].

    The verdict is the one a run from the entry would give, but it comes
    from a record of the fault-free ("golden") run, made once per
    program, entry, args, mode and fuel, and used only on images that
    equal the recorded one wherever the golden run reads.  A trial whose
    state differs from the golden's only where the golden never reads
    again has {e rejoined} it and ends exactly like it.  A flip that
    rejoins at once settles with no simulation; any other trial forks
    from the last snapshot before its flip and stops at the first later
    snapshot where it rejoins.  Thread-safe. *)

(** How {!run_trial} answered a trial. *)
type path =
  | Settled   (** rejoined at the flip: no simulation *)
  | Rejoined  (** forked from a snapshot, stopped where it rejoined *)
  | Ran       (** forked from a snapshot, ran to its end *)

val path_count : path -> int
(** Trials answered by [path] so far in this process. *)

val records_built : unit -> int
(** Golden records made so far in this process. *)

type summary = {
  trials : int;
  masked : int;
  detected : int;
  trapped : int;
  sdc : int;
  hung : int;
}

val summarize : trial list -> summary
val summary_rows : summary -> (string * int) list
