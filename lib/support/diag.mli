(** Structured compiler diagnostics.

    A failure in the pipeline is reported as a {!t} — an error code, a
    severity, the phase that failed, and the function (if the failing
    phase runs per function) — instead of a bare exception.  The driver
    stops a compile at its first failing pass with one of these; the fuzz
    oracle buckets it and the CLI prints it. *)

type severity = Info | Warning | Error

(** The pipeline stage a diagnostic originates from. *)
type phase =
  | Parse
  | Typecheck
  | Lowering
  | Expand
  | Cfg_prep
  | Profile
  | Squeeze
  | Compare_elim
  | Bitmask_elide
  | Opt
  | Verify
  | Isel
  | Regalloc
  | Assemble
  | Sim
  | Other

type t = {
  code : string;         (** stable machine-matchable code, e.g. ["BS-SQZ-01"] *)
  severity : severity;
  phase : phase;
  func : string option;  (** the function the failing phase ran on *)
  line : int option;     (** source line, for front-end diagnostics *)
  message : string;
}

val make :
  ?severity:severity -> ?func:string -> ?line:int ->
  code:string -> phase:phase -> string -> t

val error : ?func:string -> ?line:int -> code:string -> phase:phase -> string -> t
val warning : ?func:string -> ?line:int -> code:string -> phase:phase -> string -> t
val info : ?func:string -> ?line:int -> code:string -> phase:phase -> string -> t

val severity_name : severity -> string
val phase_name : phase -> string

val to_string : t -> string
(** ["error[BS-SQZ-01] (squeeze, crc32): ..."] *)

val pp : Format.formatter -> t -> unit

val is_error : t -> bool
val errors : t list -> t list
