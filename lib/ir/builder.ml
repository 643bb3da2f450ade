(* A positional builder over {!Ir}, in the style of LLVM's IRBuilder.
   It keeps an insertion block and appends instructions at its end.

   Appends are buffered: the insertion block's new instructions collect
   newest first and reach [b.instrs] in one append when a terminator is
   inserted, when the cursor moves, or on {!flush}.  Filling a block of n
   instructions one [Ir.append_instr] at a time would copy its list n
   times.  Phis are placed directly, ahead of every buffered (non-phi)
   instruction. *)

type t = {
  func : Ir.func;
  mutable cursor : Ir.block option;
  mutable pending : Ir.instr list;  (* the cursor block's unplaced tail, newest first *)
  mutable line : int;  (* current source line stamped onto new instrs *)
}

let create func = { func; cursor = None; pending = []; line = 0 }

let set_line t n = t.line <- n

(** Place the buffered instructions: after it, every block's [instrs]
    holds everything inserted into it. *)
let flush t =
  match (t.cursor, t.pending) with
  | Some b, (_ :: _ as p) ->
      b.Ir.instrs <- b.Ir.instrs @ List.rev p;
      t.pending <- []
  | _ -> ()

let position_at_end t b =
  flush t;
  t.cursor <- Some b

let current_block t =
  match t.cursor with
  | Some b -> b
  | None -> invalid_arg "Builder: no insertion block"

let func t = t.func

let insert t i =
  ignore (current_block t);
  if i.Ir.line = 0 then i.Ir.line <- t.line;
  t.pending <- i :: t.pending;
  if Ir.is_terminator i then flush t;
  i

let value i = Ir.Var i.Ir.iid

(* Each smart constructor returns the defining instruction so callers can
   chain [value]. *)

let bin t ?(name = "") op ~width a b =
  insert t (Ir.mk_instr t.func ~name ~width (Ir.Bin (op, a, b)))

let cmp t ?(name = "") op a b =
  insert t (Ir.mk_instr t.func ~name ~width:1 (Ir.Cmp (op, a, b)))

let cast t ?(name = "") op ~width a =
  insert t (Ir.mk_instr t.func ~name ~width (Ir.Cast (op, a)))

let select t ?(name = "") ~width c a b =
  insert t (Ir.mk_instr t.func ~name ~width (Ir.Select (c, a, b)))

let phi t ?(name = "") ~width incoming =
  let b = current_block t in
  let i = Ir.mk_instr t.func ~name ~line:t.line ~width (Ir.Phi incoming) in
  (* Phis go before any non-phi instruction. *)
  let phis, rest = List.partition Ir.is_phi b.Ir.instrs in
  b.Ir.instrs <- phis @ [ i ] @ rest;
  i

let load t ?(name = "") ?(volatile = false) ~width addr =
  insert t
    (Ir.mk_instr t.func ~name ~width
       (Ir.Load { l_addr = addr; l_volatile = volatile }))

let store t ?(volatile = false) ~width ~addr v =
  insert t
    (Ir.mk_instr t.func ~width:0
       (Ir.Store { s_addr = addr; s_value = v; s_width = width; s_volatile = volatile }))

let gaddr t ?(name = "") g =
  insert t (Ir.mk_instr t.func ~name ~width:32 (Ir.Gaddr g))

let salloc t ?(name = "") bytes =
  insert t (Ir.mk_instr t.func ~name ~width:32 (Ir.Salloc bytes))

let call t ?(name = "") ~width callee args =
  insert t (Ir.mk_instr t.func ~name ~width (Ir.Call { callee; args }))

let br t target =
  insert t (Ir.mk_instr t.func ~width:0 (Ir.Br target.Ir.bid))

let cbr t cond ~if_true ~if_false =
  insert t
    (Ir.mk_instr t.func ~width:0 (Ir.Cbr (cond, if_true.Ir.bid, if_false.Ir.bid)))

let ret t v = insert t (Ir.mk_instr t.func ~width:0 (Ir.Ret v))

let unreachable t = insert t (Ir.mk_instr t.func ~width:0 Ir.Unreachable)

let param t k =
  match List.nth_opt t.func.Ir.param_instrs k with
  | Some i -> i
  | None -> invalid_arg "Builder.param: index out of range"
