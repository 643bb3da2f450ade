open Bs_ir
open Bs_isa
open Isa
open Mir

(* Instruction selection (§3.3.2): SIR -> SMIR.

   Canonical value representation:
   - in BITSPEC mode ([slices] true), width-8 SIR values live in 8-bit
     virtual registers (register slices); everything else lives in 32-bit
     virtual registers holding their value zero-extended;
   - in BASELINE mode every value lives in a 32-bit virtual register.

   Speculative instructions map to the Table 1 slice operations; a
   speculative truncate whose only operand is a single-use 32-bit load
   fuses into the speculative load BLDRS. *)

exception Unsupported of string

let unsupported fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt

type ctx = {
  ir : Ir.func;
  mf : mfunc;
  slices : bool;
  vmap : (int, vreg) Hashtbl.t;          (* SIR iid -> vreg *)
  bmap : (int, int) Hashtbl.t;           (* SIR bid -> MIR bid *)
  uses : (int, Ir.instr list) Hashtbl.t;
  fused_loads : (int, unit) Hashtbl.t;   (* loads folded into BLDRS *)
  fused_truncs : (int, Ir.operand) Hashtbl.t;  (* trunc iid -> load address *)
  fused_cmps : (int, unit) Hashtbl.t;    (* compares emitted at their branch *)
  (* slice-indexed addressing (Table 1's Mem[Rn + Bm]): memory op iid ->
     (base operand, index variable) *)
  mem_index : (int, Ir.operand * int) Hashtbl.t;
  fused_addr_adds : (int, unit) Hashtbl.t;
  fused_zexts : (int, unit) Hashtbl.t;
  salloc_slot : (int, int) Hashtbl.t;    (* salloc iid -> frame slot id *)
  mutable cur : mblock;
  mutable out : minstr list;  (* [cur]'s instructions, newest first *)
}

let push ctx i = ctx.out <- i :: ctx.out

let emit ctx ?(spec = false) ?(prov = Isa.PNormal) mop =
  push ctx (mk_instr ~spec ~prov mop)

(* Attribution for speculative ops: the squeezed IR variable behind
   this instruction, with its source line (see Mir.site). *)
let site_of ctx (i : Ir.instr) =
  let var =
    if i.Ir.iname <> "" then i.Ir.iname else Printf.sprintf "%%%d" i.Ir.iid
  in
  Some { s_fn = ctx.ir.Ir.fname; s_var = var; s_line = i.Ir.line }

let unsigned_cmpop = function
  | Ir.Eq | Ir.Ne | Ir.Ult | Ir.Ule | Ir.Ugt | Ir.Uge -> true
  | Ir.Slt | Ir.Sle | Ir.Sgt | Ir.Sge -> false

(* A width-8 value deserves an 8-bit virtual register (a slice) only when
   some consumer actually wants a slice; otherwise holding it
   zero-extended in a word register avoids an extension at every wide
   use (LDRB into a word register is what the baseline does anyway).
   The recursion through width-8 phis is bounded (phi cycles). *)
let rec slice_friendly_use ?(depth = 4) ctx (i : Ir.instr) =
  depth > 0
  &&
  match Hashtbl.find_opt ctx.uses i.iid with
  | None -> false
  | Some users ->
      List.exists
        (fun (u : Ir.instr) ->
          u.Ir.speculative
          || (match u.Ir.op with
             | Ir.Store s -> s.s_width = 8
             | Ir.Cmp (op, a, b) ->
                 unsigned_cmpop op
                 && Ir.operand_width ctx.ir a = 8
                 && Ir.operand_width ctx.ir b = 8
             | Ir.Phi _ when u.Ir.width = 8 ->
                 slice_friendly_use ~depth:(depth - 1) ctx u
             | _ -> false))
        users

and vreg_width ctx (i : Ir.instr) =
  match i.op with
  | Ir.Param _ -> 32
  | _ ->
      if ctx.slices && i.width = 8
         && (i.speculative || slice_friendly_use ctx i)
      then 8
      else 32

let vreg_of ctx (i : Ir.instr) =
  match Hashtbl.find_opt ctx.vmap i.iid with
  | Some v -> v
  | None ->
      let v = fresh_vreg ctx.mf ~width:(vreg_width ctx i) in
      Hashtbl.replace ctx.vmap i.iid v;
      v

(* 32-bit vreg holding the operand zero-extended. *)
let rec val32 ctx (o : Ir.operand) : vreg =
  match o with
  | Ir.Const c ->
      if c.cwidth > 32 then unsupported "64-bit constant in back-end";
      let t = fresh_vreg ctx.mf ~width:32 in
      emit ctx (Mmovi (t, Width.trunc 32 c.cval));
      t
  | Ir.Var v ->
      let vi = Ir.instr ctx.ir v in
      if vi.width > 32 then unsupported "64-bit value %%%d in back-end" v;
      let r = vreg_of ctx vi in
      if width_of ctx.mf r = 8 then begin
        let t = fresh_vreg ctx.mf ~width:32 in
        emit ctx (Mext (Unsigned, t, r));
        t
      end
      else r

(* 32-bit vreg holding the operand sign-extended from [width]. *)
and val32s ctx ~width (o : Ir.operand) : vreg =
  if width >= 32 then val32 ctx o
  else
    match o with
    | Ir.Const c ->
        let t = fresh_vreg ctx.mf ~width:32 in
        emit ctx (Mmovi (t, Width.trunc 32 (Width.sext width c.cval)));
        t
    | Ir.Var _ ->
        let r = val32 ctx o in
        let t = fresh_vreg ctx.mf ~width:32 in
        emit ctx (Msxt ((if width = 8 then W8 else W16), t, r));
        t

(* 8-bit vreg (slice) holding the operand. *)
let val8 ctx (o : Ir.operand) : vreg =
  match o with
  | Ir.Const c ->
      let t = fresh_vreg ctx.mf ~width:8 in
      emit ctx (Mmovi (t, Width.trunc 8 c.cval));
      t
  | Ir.Var v ->
      let vi = Ir.instr ctx.ir v in
      let r = vreg_of ctx vi in
      if width_of ctx.mf r = 8 then r
      else begin
        (* canonical 32-bit holder of a width-8 value: exact slice move *)
        let t = fresh_vreg ctx.mf ~width:8 in
        emit ctx (Mtrunc_exact (t, r));
        t
      end

(* Immediate-or-register second operand for 32-bit ALU ops. *)
let vop2_32 ctx (o : Ir.operand) : vop2 =
  match o with
  | Ir.Const c when c.cwidth <= 32 && Int64.compare c.cval 0L >= 0
                    && Int64.compare c.cval 0x7FFFL <= 0 ->
      Vi c.cval
  | _ -> Vr (val32 ctx o)

let cond_of_cmpop signed_ok (op : Ir.cmpop) : Isa.cond =
  ignore signed_ok;
  match op with
  | Ir.Eq -> CEq | Ir.Ne -> CNe
  | Ir.Ult -> CUlt | Ir.Ule -> CUle | Ir.Ugt -> CUgt | Ir.Uge -> CUge
  | Ir.Slt -> CSlt | Ir.Sle -> CSle | Ir.Sgt -> CSgt | Ir.Sge -> CSge

let is_signed_cmp = function
  | Ir.Slt | Ir.Sle | Ir.Sgt | Ir.Sge -> true
  | _ -> false

(* Emit the flag-setting compare for [Cmp (op, a, b)] and return the branch
   condition. *)
let emit_compare ctx (i : Ir.instr) op a b : Isa.cond =
  let w = Ir.operand_width ctx.ir a in
  if w > 32 then unsupported "64-bit compare in back-end";
  (* 8-bit unsigned comparisons use the slice comparator whether or not
     they are speculative: BCMPS never misspeculates (Table 1) *)
  let operand_is_slice o =
    match o with
    | Ir.Var v -> Hashtbl.mem ctx.vmap (Ir.instr ctx.ir v).iid
                  && width_of ctx.mf (vreg_of ctx (Ir.instr ctx.ir v)) = 8
    | Ir.Const c -> Width.fits 8 c.cval
  in
  if ctx.slices
     && (i.speculative
        || (w = 8 && unsigned_cmpop op && operand_is_slice a
           && operand_is_slice b))
  then begin
    (* 8-bit slice compare (unsigned only; the squeezer guarantees it) *)
    let ra = val8 ctx a in
    let rhs =
      match b with
      | Ir.Const c when Int64.compare c.cval 0L >= 0 && Int64.compare c.cval 255L <= 0 ->
          `Imm (Int64.to_int c.cval)
      | _ -> `Reg (val8 ctx b)
    in
    (match rhs with
    | `Imm v ->
        push ctx { mop = Mcmp (ra, Vi (Int64.of_int v)); speculative = true;
                   prov = PNormal; msite = site_of ctx i }
    | `Reg rb ->
        push ctx { mop = Mcmp (ra, Vr rb); speculative = true;
                   prov = PNormal; msite = site_of ctx i });
    cond_of_cmpop false op
  end
  else begin
    let signed = is_signed_cmp op in
    let ra = if signed && w < 32 then val32s ctx ~width:w a else val32 ctx a in
    let rb =
      if signed && w < 32 then Vr (val32s ctx ~width:w b) else vop2_32 ctx b
    in
    emit ctx (Mcmp (ra, rb));
    cond_of_cmpop true op
  end


let mask_to_width ctx ~width dst src =
  if width = 32 then (if dst <> src then emit ctx (Mmov (dst, src)))
  else if width = 16 then emit ctx (Muxt (W16, dst, src))
  else if width = 8 then emit ctx (Muxt (W8, dst, src))
  else if width = 1 then
    emit ctx (Malu (OpAnd, dst, src, Vi 1L))
  else unsupported "mask to width %d" width

(* --- main per-instruction lowering ------------------------------------ *)

let lower_instr ctx (_b : Ir.block) (i : Ir.instr) =
  let ir = ctx.ir in
  match i.op with
  | Ir.Param _ -> ()
  | Ir.Phi _ -> () (* handled as block phis *)
  | Ir.Bin _ when Hashtbl.mem ctx.fused_addr_adds i.iid -> ()
  | Ir.Cast (Ir.Zext, _) when Hashtbl.mem ctx.fused_zexts i.iid -> ()
  | Ir.Bin (op, a, c) when i.speculative && ctx.slices && i.width = 8 -> (
      (* speculative slice arithmetic / logic *)
      let d = vreg_of ctx i in
      let ra = val8 ctx a in
      let rhs =
        match c with
        | Ir.Const k when Int64.compare k.cval 0L >= 0 && Int64.compare k.cval 15L <= 0 ->
            Vi k.cval
        | _ -> Vr (val8 ctx c)
      in
      let bop =
        match op with
        | Ir.Add -> OpAdd | Ir.Sub -> OpSub | Ir.And -> OpAnd
        | Ir.Or -> OpOrr | Ir.Xor -> OpEor
        | _ -> unsupported "speculative %s" (Bs_ir.Printer.binop_name op)
      in
      let spec = match op with Ir.Add | Ir.Sub -> true | _ -> false in
      push ctx { mop = Malu (bop, d, ra, rhs); speculative = spec;
                 prov = PNormal;
                 msite = (if spec then site_of ctx i else None) })
  | Ir.Bin (op, a, c) -> (
      if i.width > 32 then unsupported "64-bit arithmetic in back-end";
      let d = vreg_of ctx i in
      let w = i.width in
      match op with
      | Ir.Add | Ir.Sub | Ir.And | Ir.Or | Ir.Xor | Ir.Shl | Ir.Lshr ->
          let ra = val32 ctx a and rc = vop2_32 ctx c in
          let aop =
            match op with
            | Ir.Add -> OpAdd | Ir.Sub -> OpSub | Ir.And -> OpAnd
            | Ir.Or -> OpOrr | Ir.Xor -> OpEor | Ir.Shl -> OpLsl
            | _ -> OpLsr
          in
          if w = 32 || op = Ir.And || op = Ir.Or || op = Ir.Xor || op = Ir.Lshr
          then emit ctx (Malu (aop, d, ra, rc))
          else begin
            let t = fresh_vreg ctx.mf ~width:32 in
            emit ctx (Malu (aop, t, ra, rc));
            mask_to_width ctx ~width:w d t
          end
      | Ir.Ashr ->
          let ra = val32s ctx ~width:w a and rc = vop2_32 ctx c in
          if w = 32 then emit ctx (Malu (OpAsr, d, ra, rc))
          else begin
            let t = fresh_vreg ctx.mf ~width:32 in
            emit ctx (Malu (OpAsr, t, ra, rc));
            mask_to_width ctx ~width:w d t
          end
      | Ir.Mul ->
          let ra = val32 ctx a and rc = val32 ctx c in
          if w = 32 then emit ctx (Mmul (d, ra, rc))
          else begin
            let t = fresh_vreg ctx.mf ~width:32 in
            emit ctx (Mmul (t, ra, rc));
            mask_to_width ctx ~width:w d t
          end
      | Ir.Udiv ->
          emit ctx (Mdiv (Unsigned, d, val32 ctx a, val32 ctx c))
      | Ir.Sdiv ->
          let ra = val32s ctx ~width:w a and rc = val32s ctx ~width:w c in
          if w = 32 then emit ctx (Mdiv (Signed, d, ra, rc))
          else begin
            let t = fresh_vreg ctx.mf ~width:32 in
            emit ctx (Mdiv (Signed, t, ra, rc));
            mask_to_width ctx ~width:w d t
          end
      | Ir.Urem ->
          (* r = a - (a/b)*b *)
          let ra = val32 ctx a and rc = val32 ctx c in
          let q = fresh_vreg ctx.mf ~width:32 in
          let p = fresh_vreg ctx.mf ~width:32 in
          emit ctx (Mdiv (Unsigned, q, ra, rc));
          emit ctx (Mmul (p, q, rc));
          emit ctx (Malu (OpSub, d, ra, Vr p))
      | Ir.Srem ->
          let ra = val32s ctx ~width:w a and rc = val32s ctx ~width:w c in
          let q = fresh_vreg ctx.mf ~width:32 in
          let p = fresh_vreg ctx.mf ~width:32 in
          let t = fresh_vreg ctx.mf ~width:32 in
          emit ctx (Mdiv (Signed, q, ra, rc));
          emit ctx (Mmul (p, q, rc));
          emit ctx (Malu (OpSub, t, ra, Vr p));
          mask_to_width ctx ~width:w d t)
  | Ir.Cmp (op, a, c) ->
      if Hashtbl.mem ctx.fused_cmps i.iid then () (* emitted at the branch *)
      else begin
        let cond = emit_compare ctx i op a c in
        emit ctx (Mcset (cond, vreg_of ctx i))
      end
  | Ir.Cast (castop, a) -> (
      let src_w = Ir.operand_width ir a in
      if i.width > 32 || src_w > 32 then unsupported "64-bit cast in back-end";
      let d = vreg_of ctx i in
      match castop with
      | Ir.Zext ->
          (* canonical form is already zero-extended *)
          if width_of ctx.mf d = 8 then
            emit ctx (Mmov (d, val8 ctx a))
          else begin
            match a with
            | Ir.Var v when width_of ctx.mf (vreg_of ctx (Ir.instr ir v)) = 8 ->
                emit ctx (Mext (Unsigned, d, vreg_of ctx (Ir.instr ir v)))
            | _ -> emit ctx (Mmov (d, val32 ctx a))
          end
      | Ir.Sext ->
          let extended =
            match a with
            | Ir.Var v when width_of ctx.mf (vreg_of ctx (Ir.instr ir v)) = 8 ->
                let t = fresh_vreg ctx.mf ~width:32 in
                emit ctx (Mext (Signed, t, vreg_of ctx (Ir.instr ir v)));
                t
            | _ -> val32s ctx ~width:src_w a
          in
          if width_of ctx.mf d = 8 then emit ctx (Mtrunc_exact (d, extended))
          else mask_to_width ctx ~width:i.width d extended
      | Ir.TruncCast ->
          if i.speculative then begin
            if not ctx.slices then
              unsupported "speculative truncate without slice hardware";
            match Hashtbl.find_opt ctx.fused_truncs i.iid with
            | Some addr_op -> (
                (* fused load + speculative truncate: Table 1's BLDRS *)
                match Hashtbl.find_opt ctx.mem_index i.iid with
                | Some (base, sv) ->
                    let br = val32 ctx base in
                    let xs = vreg_of ctx (Ir.instr ir sv) in
                    push ctx { mop = Mloadspecx (d, br, xs); speculative = true;
                               prov = PNormal; msite = site_of ctx i }
                | None ->
                    let addr = val32 ctx addr_op in
                    push ctx { mop = Mloadspec (d, addr, 0); speculative = true;
                               prov = PNormal; msite = site_of ctx i })
            | None ->
                let src = val32 ctx a in
                push ctx { mop = Mtrunc_spec (d, src); speculative = true;
                           prov = PNormal; msite = site_of ctx i }
          end
          else if width_of ctx.mf d = 8 then
            emit ctx (Mtrunc_exact (d, val32 ctx a))
          else mask_to_width ctx ~width:i.width d (val32 ctx a))
  | Ir.Select (c, a, e) ->
      (* branchless: d = e ^ ((a ^ e) & (0 - cond)) *)
      let d = vreg_of ctx i in
      let rc = val32 ctx c and ra = val32 ctx a and re = val32 ctx e in
      let zero = fresh_vreg ctx.mf ~width:32 in
      let m = fresh_vreg ctx.mf ~width:32 in
      let x = fresh_vreg ctx.mf ~width:32 in
      let y = fresh_vreg ctx.mf ~width:32 in
      emit ctx (Mmovi (zero, 0L));
      emit ctx (Malu (OpSub, m, zero, Vr rc));
      emit ctx (Malu (OpEor, x, ra, Vr re));
      emit ctx (Malu (OpAnd, y, x, Vr m));
      emit ctx (Malu (OpEor, d, re, Vr y))
  | Ir.Load l ->
      if Hashtbl.mem ctx.fused_loads i.iid then ()
      else begin
        if i.width > 32 then unsupported "64-bit load in back-end";
        match Hashtbl.find_opt ctx.mem_index i.iid with
        | Some (base, sv) ->
            let br = val32 ctx base in
            let xs = vreg_of ctx (Ir.instr ir sv) in
            let d = vreg_of ctx i in
            if width_of ctx.mf d = 8 then emit ctx (Mload8x (d, br, xs))
            else begin
              (* destination wants a word register: load through a slice *)
              let t = fresh_vreg ctx.mf ~width:8 in
              emit ctx (Mload8x (t, br, xs));
              emit ctx (Mext (Unsigned, d, t))
            end
        | None ->
            let addr = val32 ctx l.l_addr in
            let d = vreg_of ctx i in
            if width_of ctx.mf d = 8 then
              emit ctx (Mload (W8, Unsigned, d, addr, 0))
            else
              let w = match i.width with 8 -> W8 | 16 -> W16 | _ -> W32 in
              emit ctx (Mload (w, Unsigned, d, addr, 0))
      end
  | Ir.Store s ->
      if s.s_width > 32 then unsupported "64-bit store in back-end";
      if s.s_width = 8 then begin
        match Hashtbl.find_opt ctx.mem_index i.iid with
        | Some (base, sv) ->
            (* the address add was fused away: do not materialise it *)
            let vs = val8 ctx s.s_value in
            let br = val32 ctx base in
            let xs = vreg_of ctx (Ir.instr ir sv) in
            emit ctx (Mstore8x (vs, br, xs))
        | None -> (
            let addr = val32 ctx s.s_addr in
            match s.s_value with
            | Ir.Var v
              when ctx.slices
                   && width_of ctx.mf (vreg_of ctx (Ir.instr ir v)) = 8 ->
                emit ctx (Mstore (W8, vreg_of ctx (Ir.instr ir v), addr, 0))
            | _ -> emit ctx (Mstore (W8, val32 ctx s.s_value, addr, 0)))
      end
      else begin
        let addr = val32 ctx s.s_addr in
        let w = if s.s_width = 16 then W16 else W32 in
        emit ctx (Mstore (w, val32 ctx s.s_value, addr, 0))
      end
  | Ir.Gaddr g -> emit ctx (Mgaddr (vreg_of ctx i, g))
  | Ir.Salloc _ ->
      emit ctx (Mframeaddr (vreg_of ctx i, Hashtbl.find ctx.salloc_slot i.iid))
  | Ir.Call c ->
      let args = List.map (val32 ctx) c.args in
      let ret = if Ir.has_result i then Some (vreg_of ctx i) else None in
      (* width-8 results arrive zero-extended in R0; re-slice if needed *)
      (match ret with
      | Some r when width_of ctx.mf r = 8 ->
          let t = fresh_vreg ctx.mf ~width:32 in
          emit ctx (Mcall (c.callee, args, Some t));
          emit ctx (Mtrunc_exact (r, t))
      | _ -> emit ctx (Mcall (c.callee, args, ret)))
  | Ir.Br t -> emit ctx (Mb (Hashtbl.find ctx.bmap t))
  | Ir.Cbr (cond, t, e) -> (
      let mt = Hashtbl.find ctx.bmap t and me = Hashtbl.find ctx.bmap e in
      match cond with
      | Ir.Var cv when Hashtbl.mem ctx.fused_cmps cv -> (
          let ci = Ir.instr ir cv in
          match ci.op with
          | Ir.Cmp (op, a, c2) ->
              let cc = emit_compare ctx ci op a c2 in
              emit ctx (Mbc (cc, mt, me))
          | _ -> assert false)
      | _ ->
          let rc = val32 ctx cond in
          emit ctx (Mcmp (rc, Vi 0L));
          emit ctx (Mbc (CNe, mt, me)))
  | Ir.Ret v ->
      let rv = Option.map (val32 ctx) v in
      emit ctx (Mret rv)
  | Ir.Unreachable ->
      (* trap: jump to self is not expressible; return 0 *)
      emit ctx (Mret (if ctx.ir.ret_width = 0 then None else Some (val32 ctx (Ir.const ~width:32 0L))))

(* --- function lowering ------------------------------------------------- *)

let lower_func ~slices (ir : Ir.func) : mfunc =
  let mf =
    { mname = ir.fname; nargs = List.length ir.params; mblocks = [];
      vwidth = Hashtbl.create 64; next_vreg = 0; sallocs = [];
      mregions = [] }
  in
  let ctx =
    { ir; mf; slices; vmap = Hashtbl.create 64; bmap = Hashtbl.create 16;
      uses = Ir.uses ir; fused_loads = Hashtbl.create 8;
      fused_truncs = Hashtbl.create 8; fused_cmps = Hashtbl.create 8;
      mem_index = Hashtbl.create 8; fused_addr_adds = Hashtbl.create 8;
      fused_zexts = Hashtbl.create 8;
      salloc_slot = Hashtbl.create 8;
      cur = { mbid = -1; mphis = []; mins = []; in_region = None;
              handler_of = None; is_orig = false };
      out = [] }
  in
  (* block ids *)
  List.iteri
    (fun idx (b : Ir.block) -> Hashtbl.replace ctx.bmap b.bid idx)
    ir.blocks;
  (* fusion prepass: spec-load pairs and compare/branch pairs *)
  List.iter
    (fun (b : Ir.block) ->
      (* the block's ids, tabulated the first time a pair asks *)
      let members =
        lazy
          (let t = Ir.IntTbl.create 16 in
           List.iter (fun (j : Ir.instr) -> Ir.IntTbl.replace t j.Ir.iid ()) b.instrs;
           t)
      in
      let in_block iid = Ir.IntTbl.mem (Lazy.force members) iid in
      List.iter
        (fun (i : Ir.instr) ->
          match i.op with
          | Ir.Cast (Ir.TruncCast, Ir.Var l) when i.speculative && slices -> (
              let li = Ir.instr ir l in
              match li.op with
              | Ir.Load ld
                when (not ld.l_volatile) && li.width = 32
                     && (match Hashtbl.find_opt ctx.uses l with
                        | Some [ u ] -> u.Ir.iid = i.iid
                        | _ -> false)
                     && in_block l ->
                  Hashtbl.replace ctx.fused_loads l ();
                  Hashtbl.replace ctx.fused_truncs i.iid ld.l_addr
              | _ -> ())
          | Ir.Cmp _ -> (
              match Hashtbl.find_opt ctx.uses i.iid with
              | Some [ user ] -> (
                  match user.Ir.op with
                  | Ir.Cbr (Ir.Var c, _, _)
                    when c = i.iid && in_block user.Ir.iid ->
                      Hashtbl.replace ctx.fused_cmps i.iid ()
                  | _ -> ())
              | _ -> ())
          | _ -> ())
        b.instrs)
    ir.blocks;
  (* slice-indexed addressing prepass: an address of the form
     base + zext(idx8) feeding a byte-width memory access maps to the
     Mem[Rn + Bm] form of Table 1 — the zext and the add disappear. *)
  if slices then begin
    let single_use v =
      match Hashtbl.find_opt ctx.uses v with Some [ _ ] -> true | _ -> false
    in
    let slice_index (addr : Ir.operand) =
      match addr with
      | Ir.Var a -> (
          let ai = Ir.instr ir a in
          match ai.op with
          | Ir.Bin (Ir.Add, x, y) when single_use a ->
              let try_pair base z =
                match z with
                | Ir.Var zv -> (
                    let zi = Ir.instr ir zv in
                    match zi.op with
                    | Ir.Cast (Ir.Zext, Ir.Var sv)
                      when (Ir.instr ir sv).width = 8 ->
                        Some (base, zv, sv, a)
                    | _ -> None)
                | Ir.Const _ -> None
              in
              (match try_pair x y with Some r -> Some r | None -> try_pair y x)
          | _ -> None)
      | _ -> None
    in
    let fuse_site iid addr =
      match slice_index addr with
      | Some (base, zv, sv, add_iid) ->
          Hashtbl.replace ctx.mem_index iid (base, sv);
          Hashtbl.replace ctx.fused_addr_adds add_iid ();
          (* force the index value into a slice *)
          if not (Hashtbl.mem ctx.vmap sv) then
            Hashtbl.replace ctx.vmap sv (fresh_vreg mf ~width:8);
          ignore zv
      | None -> ()
    in
    List.iter
      (fun (b : Ir.block) ->
        List.iter
          (fun (i : Ir.instr) ->
            match i.op with
            | Ir.Load l when i.width = 8 && not l.l_volatile ->
                fuse_site i.iid l.l_addr
            | Ir.Store st when st.s_width = 8 && not st.s_volatile ->
                fuse_site i.iid st.s_addr
            | Ir.Cast (Ir.TruncCast, _)
              when Hashtbl.mem ctx.fused_truncs i.iid ->
                fuse_site i.iid (Hashtbl.find ctx.fused_truncs i.iid)
            | _ -> ())
          b.instrs)
      ir.blocks;
    (* a zext whose every user is a fused address add is dead code *)
    List.iter
      (fun (b : Ir.block) ->
        List.iter
          (fun (i : Ir.instr) ->
            match i.op with
            | Ir.Cast (Ir.Zext, _) -> (
                match Hashtbl.find_opt ctx.uses i.iid with
                | Some users
                  when users <> []
                       && List.for_all
                            (fun (u : Ir.instr) ->
                              Hashtbl.mem ctx.fused_addr_adds u.Ir.iid)
                            users ->
                    Hashtbl.replace ctx.fused_zexts i.iid ()
                | _ -> ())
            | _ -> ())
          b.instrs)
      ir.blocks
  end;
  (* salloc slots *)
  let next_slot = ref 0 in
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun (i : Ir.instr) ->
          match i.op with
          | Ir.Salloc n ->
              Hashtbl.replace ctx.salloc_slot i.iid !next_slot;
              mf.sallocs <- mf.sallocs @ [ (!next_slot, n) ];
              incr next_slot
          | _ -> ())
        b.instrs)
    ir.blocks;
  (* region propagation (§3.3.1) *)
  let region_of_bid = Hashtbl.create 8 in
  let handler_of_bid = Hashtbl.create 8 in
  List.iter
    (fun (r : Ir.region) ->
      List.iter
        (fun bid -> Hashtbl.replace region_of_bid bid r.Ir.rid)
        r.Ir.rblocks;
      Hashtbl.replace handler_of_bid r.Ir.rhandler r.Ir.rid)
    ir.regions;
  mf.mregions <-
    List.map
      (fun (r : Ir.region) ->
        ( r.Ir.rid,
          List.map (fun b -> Hashtbl.find ctx.bmap b) r.Ir.rblocks,
          Hashtbl.find ctx.bmap r.Ir.rhandler ))
      ir.regions;
  (* lower blocks *)
  let mblocks =
    List.map
      (fun (b : Ir.block) ->
        let is_orig_name n =
          (* CFG_orig clones carry the squeezer's ".o" suffix *)
          let rec has i =
            i + 2 <= String.length n
            && (String.sub n i 2 = ".o" || has (i + 1))
          in
          has 0
        in
        let mb =
          { mbid = Hashtbl.find ctx.bmap b.bid;
            mphis = []; mins = [];
            in_region = Hashtbl.find_opt region_of_bid b.bid;
            handler_of = Hashtbl.find_opt handler_of_bid b.bid;
            is_orig = is_orig_name b.bname }
        in
        ctx.cur <- mb;
        (* incoming arguments *)
        if b.bid = (Ir.entry ir).bid then
          List.iteri
            (fun k (p : Ir.instr) ->
              let d = vreg_of ctx p in
              emit ctx (Margload (d, k));
              (* canonicalise narrow parameters *)
              if p.width < 32 && p.width > 1 then begin
                let t = fresh_vreg ctx.mf ~width:32 in
                emit ctx (Mmov (t, d));
                mask_to_width ctx ~width:p.width d t
              end)
            ir.param_instrs;
        (* phis collected first *)
        mb.mphis <-
          List.filter_map
            (fun (i : Ir.instr) ->
              match i.op with
              | Ir.Phi incoming ->
                  let d = vreg_of ctx i in
                  Some
                    ( d,
                      List.map
                        (fun (p, v) ->
                          let mp = Hashtbl.find ctx.bmap p in
                          match v with
                          | Ir.Const c -> (mp, Vi (Width.trunc 32 c.cval))
                          | Ir.Var x ->
                              (mp, Vr (vreg_of ctx (Ir.instr ir x))))
                        incoming )
              | _ -> None)
            b.instrs;
        List.iter (fun i -> lower_instr ctx b i) b.instrs;
        mb.mins <- List.rev ctx.out;
        ctx.out <- [];
        mb)
      ir.blocks
  in
  mf.mblocks <- mblocks;
  mf
