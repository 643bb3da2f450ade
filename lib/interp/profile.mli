(** Bitwidth profiling data (§3.2.2).

    For each SIR variable — identified by function name and defining
    instruction id — the profiler tracks minimum, maximum and mean
    RequiredBits over all dynamic assignments, from which the MAX / AVG /
    MIN target heuristics derive.  Module-wide histograms of dynamic
    integer instructions by required and programmer-selected bits
    regenerate Figure 1. *)

type heuristic = Hmax | Havg | Hmin

val heuristic_name : heuristic -> string

type var_stats = {
  mutable s_min : int;
  mutable s_max : int;
  mutable s_sum : int;
  mutable s_count : int;  (** dynamic assignments observed *)
}

type t = {
  funcs : (string, (int, var_stats) Hashtbl.t) Hashtbl.t;
      (** per-function variable tables, keyed by defining instruction id *)
  req_hist : int array;   (** by RequiredBits class: 8/16/32/64 *)
  prog_hist : int array;  (** by programmer-selected width class *)
}

val classes : int array
(** The hardware width classes: [| 8; 16; 32; 64 |]. *)

val class_index : int -> int

val create : unit -> t

type cursor
(** A per-function recording handle: resolves the function-name half of
    the variable key once; each {!slot} built from it resolves the rest. *)

val cursor : t -> func:string -> cursor

type slot
(** The recorder of one variable, built once per defining instruction
    when the interpreter compiles it: it holds the variable's key, its
    programmer-width class and the profile's histograms, and from its
    first {!record} on, the variable's stats cell.

    The contract the interpreter relies on:
    - building a slot records nothing: a variable is entered in the
      profile at its first assignment, so one never assigned stays
      unprofiled ({!stats} [None]);
    - all slots of one variable (built from several cursors of one
      profile, say by successive runs) update one cell;
    - {!record} allocates nothing and, after the slot's first
      assignment, calls nothing. *)

val slot : cursor -> iid:int -> width:int -> slot

val record : slot -> int64 -> unit
(** [record s v] logs one dynamic assignment of [v] to [s]'s variable:
    its RequiredBits ({!Bs_ir.Width.required_bits}) updates the
    variable's min, max, sum and count and the required-bits histogram,
    and the slot's width class the programmer-width histogram.  It is
    inlined where it is applied (a build without [-opaque]), with
    RequiredBits, so the value stays unboxed. *)

val stats : t -> func:string -> iid:int -> var_stats option

val iter_vars :
  t -> (func:string -> iid:int -> var_stats -> unit) -> unit
(** Iterate every profiled variable (order unspecified). *)

val target : t -> heuristic -> func:string -> iid:int -> int option
(** T(v) under the heuristic as a hardware class, or [None] if the
    variable was never assigned during profiling. *)

val required_distribution : t -> float array
(** Figure 1a: fractions of dynamic integer instructions per
    required-bits class. *)

val programmer_distribution : t -> float array
(** Figure 1b. *)

val heuristic_distribution : t -> heuristic -> float array
(** Figure 5. *)

val selection_distribution :
  t -> select:(func:string -> iid:int -> int) -> float array
(** Figures 1c/1d: distribution under an arbitrary per-variable
    selection. *)
