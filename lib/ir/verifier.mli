(** Structural and semantic validation of SIR.

    Classic SSA checks (definitions dominate uses, operand widths agree,
    phis are block prefixes with one incoming per predecessor, terminators
    close every block) plus the speculative-region rules of §3.1.1:
    a block handles at most one region, handlers are outside all regions
    and are never branch targets, and — Theorem 3.1, checked through
    SIR-relation liveness — every variable defined inside a region is dead
    at its handler's entry.  Unreachable blocks are exempt from dominance
    checks, as in LLVM.  A check costs time linear in the function's
    size, up to the dataflow iterations of the Theorem 3.1 liveness. *)

exception Invalid of string

val check_func : Ir.func -> unit
(** @raise Invalid with a diagnostic on the first violation. *)

val region_liveness :
  ?preds:(int, int list) Hashtbl.t -> Ir.func -> Liveness.t
(** The liveness Theorem 3.1 is checked against: SIR liveness ([preds]
    defaults to {!Ir.preds_sir}) tracking only the variables defined
    inside regions, which is the full answer restricted to them. *)

val check_module : Ir.modul -> unit
(** [check_func] on every function, plus call-target and global-reference
    resolution. *)

val verify_exn : Ir.modul -> unit
(** Alias of {!check_module}. *)

val verify : Ir.modul -> (unit, string) result
(** Non-raising variant. *)
