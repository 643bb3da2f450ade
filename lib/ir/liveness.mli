(** Backward liveness over SSA variables.

    The predecessor relation is a parameter: {!Ir.preds_sir} gives §3.1.2's
    semantics (a handler sees the values live at its region's entry),
    {!Ir.preds_smir} gives equation (2)'s machine-level relation used by
    the register allocator.  Phi uses are live-out of the corresponding
    predecessor, not live-in of the phi's block. *)

module IntSet : Set.S with type elt = int

type t

val compute :
  ?preds:(int, int list) Hashtbl.t -> ?vars:IntSet.t -> Ir.func -> t
(** The least solution of the backward dataflow equations, found one
    variable at a time by walking predecessors from its uses: linear in
    the code plus the size of the answer.  [preds] defaults to
    {!Ir.preds_sir}.  With [vars], only those variables are tracked:
    every set is the full answer intersected with [vars]. *)

val live_in : t -> int -> IntSet.t
val live_out : t -> int -> IntSet.t
(** A block's set is built on its first query; an unknown block's is
    empty. *)
