(** Crash-triage buckets for differential testing.

    The differential fuzzer compares one program's behaviour across every
    build configuration against the reference interpreter.  Any
    disagreement is classified into a {!t}: a divergence {!kind} plus the
    {!Diag.t} code and a short detail (the offending configuration or trap
    name) that together form a {b stable key}.  Two failures with the same
    key are the same bug for deduplication, corpus naming and replay
    purposes — the key never embeds addresses, seeds or other
    run-dependent data. *)

(** How the configurations disagreed. *)
type kind =
  | Result_mismatch   (** a machine run finished with the wrong value *)
  | Trap_divergence   (** one side trapped, the other did not (or differently) *)
  | Diag_divergence   (** a configuration's compile failed with an error diagnostic *)
  | Verifier_reject   (** the IR verifier rejected a pass's output *)
  | Frontend_reject   (** the front-end rejected generator output *)
  | Hang              (** fuel exhausted in a configuration but not the reference *)
  | Power_restored
      (** an intermittent-power run completed correctly through one or
          more checkpoint restores *)
  | Reexec_livelock
      (** repeated power failures prevented forward progress even after
          the checkpoint policy degraded *)

type t = {
  kind : kind;
  code : string option;  (** the implicated {!Diag.t} code, when one exists *)
  detail : string;       (** configuration name, trap name, … ([""] if none) *)
}

val make : ?code:string -> ?detail:string -> kind -> t

val hang : ?detail:string -> unit -> t
val restored : ?detail:string -> unit -> t
val reexec_livelock : ?detail:string -> unit -> t
(** Shared constructors: every harness that classifies a hang or a
    power-fail outcome uses these, so the keys coincide across the fuzz
    oracle, fault-injection campaigns and power-fail campaigns. *)

val kind_name : kind -> string
(** Stable kebab-case name, e.g. ["result-mismatch"]. *)

val key : t -> string
(** The stable triage key: kind, code and detail joined with [':'],
    e.g. ["diag-divergence:BS-SQZ-01:bitspec-max"]. *)

val of_diag : detail:string -> Diag.t -> t
(** Classify a compile-time diagnostic: [Verify]-phase diagnostics become
    {!Verifier_reject}, front-end phases {!Frontend_reject}, everything
    else {!Diag_divergence}; the diagnostic's code is carried over. *)

(** {2 Campaign tallies} *)

type tally
(** Multiset of bucket keys, in first-seen order. *)

val empty_tally : tally
val add : tally -> string -> tally
val rows : tally -> (string * int) list
val total : tally -> int

val report : tally -> string
(** Two-column table (key, count), first-seen order, or ["(no
    divergences)\n"] when empty. *)
