open Bs_ir

(* TAST -> SIR lowering with on-the-fly SSA construction ({!Ssa}).  Local
   scalar variables never touch memory: a variable is its symbol id, read
   and written through the construction, and a block is sealed once all
   its predecessors have been emitted. *)

exception Error of string

type loop_ctx = { break_to : Ir.block; continue_to : Ir.block }

type st = {
  func : Ir.func;
  bld : Builder.t;
  ssa : Ssa.t;
  preds : (int, int list) Hashtbl.t;          (* built as branches are emitted *)
  mutable cur : Ir.block;
  mutable terminated : bool;
  mutable loops : loop_ctx list;
  mutable entry_allocs : (int * Ir.instr) list;  (* sym id, salloc instr *)
}

let add_pred st ~from ~target =
  let cur = try Hashtbl.find st.preds target with Not_found -> [] in
  if not (List.mem from cur) then Hashtbl.replace st.preds target (from :: cur)

let read_var st bid (sid : int) (ty : Ast.ity) =
  Ssa.read st.ssa ~block:bid ~var:sid ~width:ty.Ast.w

let write_var st bid sid v = Ssa.write st.ssa ~block:bid ~var:sid v

let seal_block st (b : Ir.block) = Ssa.seal st.ssa b.Ir.bid

(* --- control-flow helpers --------------------------------------------- *)

let start_block st (b : Ir.block) =
  st.cur <- b;
  st.terminated <- false;
  Builder.position_at_end st.bld b

let emit_br st target =
  if not st.terminated then begin
    ignore (Builder.br st.bld target);
    add_pred st ~from:st.cur.Ir.bid ~target:target.Ir.bid;
    st.terminated <- true
  end

let emit_cbr st cond ~if_true ~if_false =
  if not st.terminated then begin
    ignore (Builder.cbr st.bld cond ~if_true ~if_false);
    add_pred st ~from:st.cur.Ir.bid ~target:if_true.Ir.bid;
    add_pred st ~from:st.cur.Ir.bid ~target:if_false.Ir.bid;
    st.terminated <- true
  end

let emit_ret st v =
  if not st.terminated then begin
    ignore (Builder.ret st.bld v);
    st.terminated <- true
  end

let fresh_block st name =
  let b = Ir.add_block st.func name in
  b

(* --- expressions ------------------------------------------------------ *)

let binop_ir signed (op : Ast.binop) : Ir.binop =
  match op with
  | Ast.BAdd -> Ir.Add | Ast.BSub -> Ir.Sub | Ast.BMul -> Ir.Mul
  | Ast.BDiv -> if signed then Ir.Sdiv else Ir.Udiv
  | Ast.BMod -> if signed then Ir.Srem else Ir.Urem
  | Ast.BAnd -> Ir.And | Ast.BOr -> Ir.Or | Ast.BXor -> Ir.Xor
  | Ast.BShl -> Ir.Shl
  | Ast.BShr -> if signed then Ir.Ashr else Ir.Lshr
  | _ -> raise (Error "not an arithmetic operator")

let cmpop_ir signed (op : Ast.binop) : Ir.cmpop =
  match op with
  | Ast.BEq -> Ir.Eq | Ast.BNe -> Ir.Ne
  | Ast.BLt -> if signed then Ir.Slt else Ir.Ult
  | Ast.BLe -> if signed then Ir.Sle else Ir.Ule
  | Ast.BGt -> if signed then Ir.Sgt else Ir.Ugt
  | Ast.BGe -> if signed then Ir.Sge else Ir.Uge
  | _ -> raise (Error "not a comparison operator")

let elem_info = function
  | Tast.Aglobal (_, t, vol) -> (t, vol)
  | Tast.Alocal (_, t, _) -> (t, false)
  | Tast.Aparam (_, t) -> (t, false)

let rec lower_expr st (e : Tast.texpr) : Ir.operand =
  match e.te with
  | TConst v -> Ir.const ~width:e.tty.Ast.w v
  | TVar sym -> read_var st st.cur.Ir.bid sym.sid sym.sty
  | TLoadArr (arr, idx) ->
      let elem, vol = elem_info arr in
      let addr = lower_elem_addr st arr idx elem in
      Builder.value (Builder.load st.bld ~volatile:vol ~width:elem.Ast.w addr)
  | TBin (op, a, b) ->
      let signed = e.tty.Ast.signed in
      let va = lower_expr st a and vb = lower_expr st b in
      Builder.value
        (Builder.bin st.bld (binop_ir signed op) ~width:e.tty.Ast.w va vb)
  | TCmp (op, signed, a, b) ->
      let va = lower_expr st a and vb = lower_expr st b in
      Builder.value (Builder.cmp st.bld (cmpop_ir signed op) va vb)
  | TLogAnd (a, b) -> lower_shortcircuit st ~is_and:true a b
  | TLogOr (a, b) -> lower_shortcircuit st ~is_and:false a b
  | TLogNot a ->
      let va = lower_expr st a in
      Builder.value (Builder.cmp st.bld Ir.Eq va (Ir.const ~width:1 0L))
  | TCast (a, ty) ->
      let va = lower_expr st a in
      let src = a.tty in
      if src.Ast.w = ty.Ast.w then va
      else if ty.Ast.w < src.Ast.w then
        Builder.value (Builder.cast st.bld Ir.TruncCast ~width:ty.Ast.w va)
      else if src.Ast.signed then
        Builder.value (Builder.cast st.bld Ir.Sext ~width:ty.Ast.w va)
      else Builder.value (Builder.cast st.bld Ir.Zext ~width:ty.Ast.w va)
  | TCall (name, args) ->
      let vargs = List.map (lower_expr st) args in
      Builder.value (Builder.call st.bld ~width:e.tty.Ast.w name vargs)
  | TArrayAddr arr -> lower_base_addr st arr
  | TCond (c, a, b) ->
      (* Lower through control flow so arm side effects stay conditional. *)
      let vc = lower_expr st c in
      let then_b = fresh_block st "sel.then" in
      let else_b = fresh_block st "sel.else" in
      let merge_b = fresh_block st "sel.end" in
      emit_cbr st vc ~if_true:then_b ~if_false:else_b;
      seal_block st then_b;
      seal_block st else_b;
      start_block st then_b;
      let va = lower_expr st a in
      let then_end = st.cur in
      emit_br st merge_b;
      start_block st else_b;
      let vb = lower_expr st b in
      let else_end = st.cur in
      emit_br st merge_b;
      seal_block st merge_b;
      start_block st merge_b;
      Builder.position_at_end st.bld merge_b;
      let phi =
        Builder.phi st.bld ~width:e.tty.Ast.w
          [ (then_end.Ir.bid, va); (else_end.Ir.bid, vb) ]
      in
      Ssa.track_phi st.ssa phi;
      Builder.value phi

and lower_shortcircuit st ~is_and a b =
  let va = lower_expr st a in
  let rhs_b = fresh_block st (if is_and then "and.rhs" else "or.rhs") in
  let merge_b = fresh_block st (if is_and then "and.end" else "or.end") in
  let from = st.cur in
  if is_and then emit_cbr st va ~if_true:rhs_b ~if_false:merge_b
  else emit_cbr st va ~if_true:merge_b ~if_false:rhs_b;
  seal_block st rhs_b;
  start_block st rhs_b;
  let vb = lower_expr st b in
  let rhs_end = st.cur in
  emit_br st merge_b;
  seal_block st merge_b;
  start_block st merge_b;
  let short_val = Ir.const ~width:1 (if is_and then 0L else 1L) in
  let phi =
    Builder.phi st.bld ~width:1
      [ (from.Ir.bid, short_val); (rhs_end.Ir.bid, vb) ]
  in
  Ssa.track_phi st.ssa phi;
  Builder.value phi

and lower_base_addr st (arr : Tast.arr_ref) : Ir.operand =
  match arr with
  | Aglobal (name, _, _) -> Builder.value (Builder.gaddr st.bld name)
  | Alocal (sym, _, _) -> (
      match List.assoc_opt sym.sid st.entry_allocs with
      | Some i -> Ir.Var i.Ir.iid
      | None -> raise (Error ("local array used before declaration: " ^ sym.sname)))
  | Aparam (sym, _) -> read_var st st.cur.Ir.bid sym.sid Ast.u32

and lower_elem_addr st arr (idx : Tast.texpr) (elem : Ast.ity) : Ir.operand =
  let base = lower_base_addr st arr in
  let vidx = lower_expr st idx in
  let bytes = elem.Ast.w / 8 in
  let scaled =
    if bytes = 1 then vidx
    else
      let shift =
        match bytes with 2 -> 1L | 4 -> 2L | 8 -> 3L | _ -> assert false
      in
      Builder.value
        (Builder.bin st.bld Ir.Shl ~width:32 vidx (Ir.const ~width:32 shift))
  in
  Builder.value (Builder.bin st.bld Ir.Add ~width:32 base scaled)

(* --- statements ------------------------------------------------------- *)

let rec lower_stmts st stmts = List.iter (lower_stmt st) stmts

and lower_stmt st (s : Tast.tstmt) =
  match s with
  | TLine n -> Builder.set_line st.bld n
  | _ ->
  if st.terminated then () (* dead code after return/break *)
  else
    match s with
    | TDecl (sym, init) ->
        let v = lower_expr st init in
        write_var st st.cur.Ir.bid sym.sid v
    | TDeclArr (sym, elem, count) ->
        let bytes = count * (elem.Ast.w / 8) in
        let i = Ir.mk_instr st.func ~name:sym.sname ~width:32 (Ir.Salloc bytes) in
        st.entry_allocs <- st.entry_allocs @ [ (sym.sid, i) ]
    | TAssign (TLvar sym, e) ->
        let v = lower_expr st e in
        write_var st st.cur.Ir.bid sym.sid v
    | TAssign (TLarr (arr, idx), e) ->
        let elem, vol = elem_info arr in
        let addr = lower_elem_addr st arr idx elem in
        let v = lower_expr st e in
        ignore (Builder.store st.bld ~volatile:vol ~width:elem.Ast.w ~addr v)
    | TIf (c, thn, els) ->
        let vc = lower_expr st c in
        let then_b = fresh_block st "if.then" in
        let else_b = fresh_block st "if.else" in
        let merge_b = fresh_block st "if.end" in
        emit_cbr st vc ~if_true:then_b ~if_false:else_b;
        seal_block st then_b;
        seal_block st else_b;
        start_block st then_b;
        lower_stmts st thn;
        emit_br st merge_b;
        start_block st else_b;
        lower_stmts st els;
        emit_br st merge_b;
        seal_block st merge_b;
        start_block st merge_b
    | TWhile (c, body) ->
        let header = fresh_block st "while.cond" in
        let body_b = fresh_block st "while.body" in
        let exit_b = fresh_block st "while.end" in
        emit_br st header;
        (* header stays unsealed until the latch edge is known *)
        start_block st header;
        let vc = lower_expr st c in
        emit_cbr st vc ~if_true:body_b ~if_false:exit_b;
        seal_block st body_b;
        start_block st body_b;
        st.loops <- { break_to = exit_b; continue_to = header } :: st.loops;
        lower_stmts st body;
        st.loops <- List.tl st.loops;
        emit_br st header;
        seal_block st header;
        seal_block st exit_b;
        start_block st exit_b
    | TFor (c, body, step) ->
        (* Separate step block so that [continue] still executes the
           induction update. *)
        let header = fresh_block st "for.cond" in
        let body_b = fresh_block st "for.body" in
        let step_b = fresh_block st "for.step" in
        let exit_b = fresh_block st "for.end" in
        emit_br st header;
        start_block st header;
        let vc = lower_expr st c in
        emit_cbr st vc ~if_true:body_b ~if_false:exit_b;
        seal_block st body_b;
        start_block st body_b;
        st.loops <- { break_to = exit_b; continue_to = step_b } :: st.loops;
        lower_stmts st body;
        st.loops <- List.tl st.loops;
        emit_br st step_b;
        seal_block st step_b;
        start_block st step_b;
        lower_stmts st step;
        emit_br st header;
        seal_block st header;
        seal_block st exit_b;
        start_block st exit_b
    | TDoWhile (body, c) ->
        let body_b = fresh_block st "do.body" in
        let cond_b = fresh_block st "do.cond" in
        let exit_b = fresh_block st "do.end" in
        emit_br st body_b;
        start_block st body_b;
        st.loops <- { break_to = exit_b; continue_to = cond_b } :: st.loops;
        lower_stmts st body;
        st.loops <- List.tl st.loops;
        emit_br st cond_b;
        seal_block st cond_b;
        start_block st cond_b;
        let vc = lower_expr st c in
        emit_cbr st vc ~if_true:body_b ~if_false:exit_b;
        seal_block st body_b;
        seal_block st exit_b;
        start_block st exit_b
    | TReturn v ->
        let v = Option.map (lower_expr st) v in
        emit_ret st v
    | TBreak -> (
        match st.loops with
        | ctx :: _ -> emit_br st ctx.break_to
        | [] -> raise (Error "break outside loop"))
    | TContinue -> (
        match st.loops with
        | ctx :: _ -> emit_br st ctx.continue_to
        | [] -> raise (Error "continue outside loop"))
    | TExpr e -> ignore (lower_expr st e)
    | TLine _ -> assert false (* handled above *)

(* --- functions and modules -------------------------------------------- *)

let lower_func (tf : Tast.tfunc) : Ir.func =
  let params =
    List.map (fun (p : Tast.tparam) -> (p.p_sym.sname, p.p_sym.sty.Ast.w)) tf.tf_params
  in
  let ret_width = match tf.tf_ret with Some t -> t.Ast.w | None -> 0 in
  let func = Ir.create_func ~name:tf.tf_name ~params ~ret_width in
  let entry = Ir.add_block func "entry" in
  let preds = Hashtbl.create 16 in
  let ssa =
    Ssa.create func
      ~preds:(fun bid ->
        match Hashtbl.find_opt preds bid with Some l -> List.rev l | None -> [])
      ~phi_name:(fun sid -> "v" ^ string_of_int sid)
  in
  let st =
    { func; bld = Builder.create func; ssa; preds; cur = entry;
      terminated = false; loops = []; entry_allocs = [] }
  in
  seal_block st entry;
  Builder.position_at_end st.bld entry;
  (* Parameters seed the entry block's definitions. *)
  List.iteri
    (fun k (p : Tast.tparam) ->
      let i = List.nth func.Ir.param_instrs k in
      write_var st entry.Ir.bid p.p_sym.sid (Ir.Var i.Ir.iid))
    tf.tf_params;
  lower_stmts st tf.tf_body;
  (* Implicit return at fall-through. *)
  if not st.terminated then
    emit_ret st (if ret_width = 0 then None else Some (Ir.const ~width:ret_width 0L));
  Builder.flush st.bld;
  Ssa.finish st.ssa;
  (* Static stack allocations live at the top of the entry block. *)
  List.iter
    (fun (_, i) -> Ir.prepend_instr entry i)
    (List.rev st.entry_allocs);
  func

let lower_global (g : Tast.tglobal) : Ir.global =
  { Ir.gname = g.tg_name; elem_width = g.tg_ty.Ast.w; count = g.tg_count;
    ginit = g.tg_init }

(** [lower_program p] converts a checked program to an SIR module. *)
let lower_program (p : Tast.tprogram) : Ir.modul =
  { Ir.funcs = List.map lower_func p.tfuncs;
    globals = List.map lower_global p.tglobals }

(** [compile src] runs the full front-end: lex, parse, check, lower, and
    verify.  Raises on malformed input. *)
let compile (src : string) : Ir.modul =
  let ast = Parser.parse src in
  let tast = Typecheck.check_program ast in
  let m = lower_program tast in
  Verifier.verify_exn m;
  m
