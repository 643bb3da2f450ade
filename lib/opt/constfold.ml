open Bs_ir
open Bs_interp

(* Constant folding and trivial algebraic simplification.  Reuses the
   interpreter's evaluation functions so folding and execution can never
   disagree. *)

let fold_instr (f : Ir.func) (i : Ir.instr) : Ir.operand option =
  if i.speculative then None
  else
    match i.op with
    | Ir.Bin (op, Ir.Const a, Ir.Const b) -> (
        match op with
        | (Ir.Udiv | Ir.Sdiv | Ir.Urem | Ir.Srem) when b.cval = 0L -> None
        | _ -> Some (Ir.const ~width:i.width (Interp.eval_binop op i.width a.cval b.cval)))
    | Ir.Cmp (op, Ir.Const a, Ir.Const b) ->
        let w = a.cwidth in
        Some (Ir.const ~width:1 (Interp.eval_cmp op w a.cval b.cval))
    | Ir.Cast (op, Ir.Const a) ->
        let v =
          match op with
          | Ir.Zext -> a.cval
          | Ir.Sext -> Width.trunc i.width (Width.sext a.cwidth a.cval)
          | Ir.TruncCast -> Width.trunc i.width a.cval
        in
        Some (Ir.const ~width:i.width v)
    | Ir.Select (Ir.Const c, a, b) -> Some (if c.cval <> 0L then a else b)
    (* algebraic identities *)
    | Ir.Bin (Ir.Add, x, Ir.Const { cval = 0L; _ })
    | Ir.Bin (Ir.Sub, x, Ir.Const { cval = 0L; _ })
    | Ir.Bin (Ir.Or, x, Ir.Const { cval = 0L; _ })
    | Ir.Bin (Ir.Xor, x, Ir.Const { cval = 0L; _ })
    | Ir.Bin (Ir.Shl, x, Ir.Const { cval = 0L; _ })
    | Ir.Bin (Ir.Lshr, x, Ir.Const { cval = 0L; _ })
    | Ir.Bin (Ir.Ashr, x, Ir.Const { cval = 0L; _ }) ->
        if Ir.operand_width f x = i.width then Some x else None
    | Ir.Bin (Ir.Mul, x, Ir.Const { cval = 1L; _ }) ->
        if Ir.operand_width f x = i.width then Some x else None
    | Ir.Bin (Ir.Mul, _, Ir.Const { cval = 0L; _ })
    | Ir.Bin (Ir.And, _, Ir.Const { cval = 0L; _ }) ->
        Some (Ir.const ~width:i.width 0L)
    | Ir.Bin (Ir.And, x, Ir.Const c) when c.cval = Width.mask i.width ->
        if Ir.operand_width f x = i.width then Some x else None
    | Ir.Phi incoming -> (
        (* all-same-value phi *)
        match List.sort_uniq compare (List.map snd incoming) with
        | [ (Ir.Const _ as v) ] -> Some v
        | [ Ir.Var v ] when v <> i.iid -> Some (Ir.Var v)
        | _ -> None)
    | _ -> None

let run_func (f : Ir.func) =
  let folded = ref 0 in
  let progress = ref true in
  (* A folded instruction's replacement is recorded here, applied to an
     instruction's operands just before it is looked at and to every
     instruction when the round ends, so a round is one pass however many
     instructions fold; each instruction is evaluated on operands with
     every earlier fold already substituted. *)
  let subst : (int, Ir.operand) Hashtbl.t = Hashtbl.create 16 in
  let rec resolve (o : Ir.operand) =
    match o with
    | Ir.Var v -> (
        match Hashtbl.find_opt subst v with Some o' -> resolve o' | None -> o)
    | Ir.Const _ -> o
  in
  let rewrite (i : Ir.instr) =
    if Hashtbl.length subst > 0 then Ir.map_operands resolve i
  in
  while !progress do
    progress := false;
    List.iter
      (fun (b : Ir.block) ->
        List.iter
          (fun (i : Ir.instr) ->
            if Ir.has_result i then begin
              rewrite i;
              match fold_instr f i with
              | Some replacement ->
                  Hashtbl.replace subst i.iid replacement;
                  incr folded;
                  progress := true;
                  (* neutralise the instruction; DCE removes it *)
                  i.op <- Ir.Bin (Ir.Add,
                                  Ir.const ~width:i.width 0L,
                                  Ir.const ~width:i.width 0L)
              | None -> ()
            end)
          b.instrs)
      f.blocks;
    if !progress then begin
      List.iter (fun (b : Ir.block) -> List.iter rewrite b.instrs) f.blocks;
      Hashtbl.reset subst;
      ignore (Dce.run_func f)
    end
  done;
  !folded

let run (m : Ir.modul) = List.fold_left (fun n f -> n + run_func f) 0 m.funcs
