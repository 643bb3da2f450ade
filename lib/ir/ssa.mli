(** SSA construction after Braun et al. (CC 2013), for the front end's
    lowering and the squeezer's SSA repair (§3.2.3 pass ③, the φ-merge of
    equation (8)).

    A variable is an integer key; [write] records its value at the end of
    a block, and [read] finds the value reaching the end of a block,
    placing phis at joins.  Phis that merge a single value are removed
    recursively; the operands naming them are rewritten by {!finish}. *)

type t

val create :
  Ir.func -> preds:(int -> int list) -> phi_name:(int -> string) -> t
(** [create f ~preds ~phi_name] starts a construction over [f] with no
    block sealed.  [preds] gives a block's predecessors (for a sealed
    block, all of them; their order is the order of a new phi's incoming
    edges); [phi_name] names the phis placed for a variable. *)

val write : t -> block:int -> var:int -> Ir.operand -> unit
(** Record [var]'s value at the end of [block]. *)

val read : t -> block:int -> var:int -> width:int -> Ir.operand
(** The value of [var] reaching the end of [block]: its definition there,
    else a read at the lone predecessor, else a phi of [width] bits.  A
    block without predecessors reads zero. *)

val seal : t -> int -> unit
(** Declare every predecessor of a block known and fill the phis that
    reads placed there before. *)

val track_phi : t -> Ir.instr -> unit
(** Register a phi built outside the construction (a conditional
    expression's merge) as a user of the phis it reads, so that it is
    removed too if their removal makes it trivial. *)

val finish : t -> unit
(** Delete the removed phis from [f] and rewrite every operand that names
    one to its replacement: one pass over the function, skipped when
    nothing was removed. *)
