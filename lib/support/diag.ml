(* Structured compiler diagnostics.

   A failure in the pipeline is reported as a [t] — an error code, a
   severity, the phase that failed, and the function (if the failing
   phase runs per function) — instead of a bare exception.  The driver
   stops a compile at its first failing pass with one of these; the fuzz
   oracle buckets it and the CLI prints it. *)

type severity = Info | Warning | Error

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
  code : string;           (* stable machine-matchable code, e.g. "BS-SQZ-01" *)
  severity : severity;
  phase : phase;
  func : string option;    (* the function the failing phase ran on *)
  line : int option;       (* source line, for front-end diagnostics *)
  message : string;
}

let make ?(severity = Error) ?func ?line ~code ~phase message =
  { code; severity; phase; func; line; message }

let error = make ~severity:Error
let warning = make ~severity:Warning
let info = make ~severity:Info

let severity_name = function
  | Info -> "info"
  | Warning -> "warning"
  | Error -> "error"

let phase_name = function
  | Parse -> "parse"
  | Typecheck -> "typecheck"
  | Lowering -> "lowering"
  | Expand -> "expand"
  | Cfg_prep -> "cfg-prep"
  | Profile -> "profile"
  | Squeeze -> "squeeze"
  | Compare_elim -> "compare-elim"
  | Bitmask_elide -> "bitmask-elide"
  | Opt -> "opt"
  | Verify -> "verify"
  | Isel -> "isel"
  | Regalloc -> "regalloc"
  | Assemble -> "assemble"
  | Sim -> "sim"
  | Other -> "other"

let to_string d =
  let ctx =
    match (d.func, d.line) with
    | Some f, _ -> Printf.sprintf "%s, %s" (phase_name d.phase) f
    | None, Some l -> Printf.sprintf "%s, line %d" (phase_name d.phase) l
    | None, None -> phase_name d.phase
  in
  Printf.sprintf "%s[%s] (%s): %s" (severity_name d.severity) d.code ctx
    d.message

let pp fmt d = Format.pp_print_string fmt (to_string d)

let is_error d = d.severity = Error
let errors ds = List.filter is_error ds
