(** Register allocation (§3.3.3).

    Phi elimination (critical-edge splitting + parallel copies), then a
    linear scan over live ranges *with holes*.  Liveness uses equation
    (2)'s SMIR predecessor relation — every region block feeds its handler
    — so values the handler and the re-executed CFG_orig block will read
    stay allocated across the whole region (the guarantee the paper's
    BB_clone construction provides).  Every 8-bit slice of every register
    is an allocatable location: a 32-bit interval claims four slices, an
    8-bit interval one — the register packing of §2.5.  Copy hints
    coalesce the SSA-repair phi webs.

    Calling convention: stack arguments, result in R0, callee saves every
    register it uses except R0; only intervals live across a call must
    avoid R0. *)

type loc =
  | Lreg of Bs_isa.Isa.reg
  | Lslice of Bs_isa.Isa.slice
  | Lstack of int          (** spill slot index *)

val allocatable : Bs_isa.Isa.reg list
(** R0-R10; R11/R12 are the emitter's scratch registers. *)

val scratch0 : Bs_isa.Isa.reg
val scratch1 : Bs_isa.Isa.reg

val eliminate_phis : Mir.mfunc -> unit
(** Destroy SSA: split critical edges, lower phis to width-aware parallel
    copies (cycles broken through a temporary). *)

type result = {
  assignment : (Mir.vreg, loc) Hashtbl.t;
  spill_slots : int;            (** number of 4-byte spill slots *)
  used_regs : Bs_isa.Isa.reg list;
}

(** The ranges claimed on one (register, slice) location: half-open
    [\[start, end)] instruction positions, pairwise disjoint, since the
    allocator claims a range only after a probe found it free. *)
module Occ : sig
  type t

  val create : unit -> t

  val clashes : t -> int -> int -> bool
  (** [clashes o s e]: does a claimed range overlap [\[s, e)]?  A binary
      search that allocates nothing. *)

  val claim : t -> (int * int) list -> unit
  (** [claim o ranges] adds [ranges], sorted and disjoint, none of which
      {!clashes} on [o]. *)
end

val run : ?regs:Bs_isa.Isa.reg list -> ?orig_first:bool -> Mir.mfunc -> result
(** Allocate every virtual register.  [regs] restricts the allocatable set
    (Thumb passes R0-R7); [orig_first] inverts the RQ5 handler
    branch-weight heuristic, giving CFG_orig intervals first pick. *)
