(* Structured execution outcomes shared by the reference interpreter and
   the machine model, so fuel exhaustion and traps classify identically
   whichever engine ran the program (the fault-injection harness relies on
   this to compare the two); a trap is a result, never an exception. *)

type trap =
  | Division_by_zero
  | Stack_overflow
  | Unknown_entry of string
  | Unknown_function of string
  | Pc_out_of_range of int
  | Classic_mode_slice
  | Memory_fault of string
  | Trap_message of string

type t = Finished | Out_of_fuel | Trapped of trap | Livelock

let trap_message = function
  | Division_by_zero -> "division by zero"
  | Stack_overflow -> "stack overflow"
  | Unknown_entry e -> "unknown entry " ^ e
  | Unknown_function f -> "call to unknown function " ^ f
  | Pc_out_of_range pc -> Printf.sprintf "PC out of range: %d" pc
  | Classic_mode_slice -> "slice instruction in classic mode"
  | Memory_fault m -> "memory fault: " ^ m
  | Trap_message m -> m

(* Payload-free names: the fuzzer's triage keys must not change with the
   faulting address or the entry name, only with the trap's kind. *)
let trap_name = function
  | Division_by_zero -> "div0"
  | Stack_overflow -> "stack-overflow"
  | Unknown_entry _ -> "unknown-entry"
  | Unknown_function _ -> "unknown-function"
  | Pc_out_of_range _ -> "pc-out-of-range"
  | Classic_mode_slice -> "classic-mode-slice"
  | Memory_fault _ -> "memory-fault"
  | Trap_message _ -> "trap"

(* The error line of a run refused because it trapped: a memory fault
   keeps the image's own wording, any other trap names the engine. *)
let refuse_trap ~engine = function
  | Trapped (Memory_fault _ as t) -> failwith (trap_message t)
  | Trapped t -> failwith (engine ^ " trap: " ^ trap_message t)
  | Finished | Out_of_fuel | Livelock -> ()

let to_string = function
  | Finished -> "finished"
  | Out_of_fuel -> "out of fuel"
  | Trapped t -> "trap: " ^ trap_message t
  | Livelock -> "re-execution livelock"

(* The shared hang budget.  Both fault-injection campaigns and the fuzz
   oracle bound a machine run by the reference execution's length scaled
   by an engine-specific [factor], plus flat slack for startup code; a
   run exceeding it classifies as [Out_of_fuel] on either harness.
   Keeping the formula here keeps the two classifications identical. *)
let hang_fuel ~steps ~factor = (factor * steps) + 10_000
