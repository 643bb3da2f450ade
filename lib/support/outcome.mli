(** Structured execution outcomes.

    The reference interpreter and the machine model both report how a run
    ended through this one type, so fuel exhaustion and traps classify
    identically whichever engine ran the program; a trap is a result,
    never an exception.  The fault-injection harness compares outcomes
    across engines when judging injected faults. *)

(** Why an execution stopped abnormally. *)
type trap =
  | Division_by_zero
  | Stack_overflow  (** interpreter frames hit the globals, or depth > 10^5 *)
  | Unknown_entry of string     (** no such entry point *)
  | Unknown_function of string  (** call target does not resolve *)
  | Pc_out_of_range of int      (** control escaped the code image *)
  | Classic_mode_slice          (** slice instruction with the extension off *)
  | Memory_fault of string      (** out-of-bounds access *)
  | Trap_message of string      (** anything else, with a diagnostic *)

type t =
  | Finished                    (** ran to completion; the result is valid *)
  | Out_of_fuel                 (** dynamic instruction budget exhausted *)
  | Trapped of trap
  | Livelock
      (** intermittent-power execution gave up: repeated power failures
          prevented forward progress even after the checkpoint policy
          degraded (see {!Bs_sim.Machine.power}) *)

val trap_message : trap -> string

val trap_name : trap -> string
(** Stable payload-free name for triage keys, e.g. ["div0"],
    ["memory-fault"]. *)

val refuse_trap : engine:string -> t -> unit
(** Fails ([Failure]) on a trap with the line the command line prints:
    ["<engine> trap: <message>"], or ["memory fault: <message>"]. *)

val to_string : t -> string

val hang_fuel : steps:int -> factor:int -> int
(** The shared hang budget: a machine run bounded by the reference
    execution's [steps] scaled by [factor], plus flat slack.  The
    fault-injection campaign and the fuzz oracle both derive their fuel
    from this one formula so out-of-fuel classifies identically on
    either harness. *)
