(** SSA repair on a complete CFG (Braun et al. restricted to sealed
    graphs).

    Used by the squeezer's pass ③: handlers provide alternative
    definitions for variables live at re-executed blocks, so each such
    variable gains several definitions and its uses must be rewired
    through fresh phis at joins — equation (8)'s φ-merge. *)

val repair :
  Bs_ir.Ir.func ->
  var:int ->
  extra_defs:(int * Bs_ir.Ir.operand) list ->
  preds:(int, int list) Hashtbl.t ->
  unit
(** [repair f ~var ~extra_defs ~preds] rewires every use of SSA variable
    [var] to observe the correct reaching definition given the additional
    definitions (block id, value).  [preds] must be the final CFG's
    relation, including handler branch edges.  Trivial phis are removed
    with forwarding so nested removals stay consistent. *)

val repair_all :
  Bs_ir.Ir.func ->
  vars:(int * (int * Bs_ir.Ir.operand) list) list ->
  preds:(int, int list) Hashtbl.t ->
  unit
(** [repair] for each [(var, extra_defs)] in order, with every variable's
    definition and uses found in one pass over the function rather than
    one pass per variable. *)
