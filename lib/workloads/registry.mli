(** All benchmarks, in the paper's Figure 8 order. *)

val all : Workload.t list

val find : string -> Workload.t
(** Names are case-sensitive.
    @raise Invalid_argument for an unknown name, with a message that
    lists the known names and suggests the one that matches ignoring
    case, if any. *)

val names : string list
