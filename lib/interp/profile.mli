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

val slot : cursor -> iid:int -> width:int -> int64 -> unit
(** [slot c ~iid ~width] is the recorder of one variable: applied to a
    value, it logs one dynamic assignment of it.  Everything but the
    value — the width class and (lazily, on first use) the stats cell —
    is resolved up front, so the interpreter bakes one slot per
    committing instruction at compile time.  Building a slot alone
    records nothing. *)

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
