(** Dominator computation (Cooper-Harvey-Kennedy iterative algorithm).

    Handlers participate through the SIR predecessor relation by default,
    so dominance queries are valid inside misspeculation handlers too.
    A query is constant time: the tree is numbered once, in preorder. *)

type t

val compute :
  ?preds:(int, int list) Hashtbl.t -> ?order:int list -> Ir.func -> t
(** [compute f] builds the dominator tree; [preds] overrides the
    predecessor relation (default {!Ir.preds_sir}) and [order] supplies
    {!Ir.reverse_postorder}[ f] when the caller already has it. *)

val idom : t -> int -> int option
(** The immediate dominator; the entry is its own, and a block that is
    unreachable (or got no dominator) has none. *)

val dominates : t -> int -> int -> bool
(** [dominates t a b] — block [a] dominates block [b] (reflexive): [a]
    lies on [b]'s chain of immediate dominators. *)

val strictly_dominates : t -> int -> int -> bool

val rpo : t -> int list
(** Blocks in reverse postorder. *)
