open Bs_ir

(* Dead-code elimination: iteratively removes pure instructions whose
   results are unused.  Speculative instructions are retained even when
   unused — compare elimination (§3.2.4) makes control flow depend on their
   speculation outcome, so removing them would change behaviour. *)

let is_pure (i : Ir.instr) =
  match i.op with
  | Ir.Bin _ | Ir.Cmp _ | Ir.Cast _ | Ir.Select _ | Ir.Phi _ | Ir.Gaddr _
  | Ir.Param _ -> true
  | Ir.Load l -> not l.l_volatile
  | Ir.Salloc _ ->
      (* address identity matters only through uses *)
      true
  | Ir.Store _ | Ir.Call _ | Ir.Br _ | Ir.Cbr _ | Ir.Ret _ | Ir.Unreachable ->
      false

let removable (i : Ir.instr) =
  Ir.has_result i && is_pure i && not i.speculative

(** [run_func f] removes dead instructions; returns the number removed.
    Every use is counted once; removing an instruction releases its
    operands, and one whose count drops to zero is removed in turn, so an
    instruction used only by dead ones dies too.  A cycle of unused phis
    keeps its uses and stays. *)
let run_func (f : Ir.func) =
  let uses : int Ir.IntTbl.t = Ir.IntTbl.create 64 in
  let count (o : Ir.operand) =
    match o with
    | Ir.Var v ->
        Ir.IntTbl.replace uses v
          (1 + Option.value (Ir.IntTbl.find_opt uses v) ~default:0)
    | Ir.Const _ -> ()
  in
  List.iter
    (fun (b : Ir.block) -> List.iter (Ir.iter_operands count) b.instrs)
    f.blocks;
  let by_id : Ir.instr Ir.IntTbl.t = Ir.IntTbl.create 64 in
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun (i : Ir.instr) ->
          if removable i then Ir.IntTbl.replace by_id i.iid i)
        b.instrs)
    f.blocks;
  let dead : unit Ir.IntTbl.t = Ir.IntTbl.create 16 in
  let pending = ref [] in
  let kill (i : Ir.instr) =
    if not (Ir.IntTbl.mem dead i.iid) then begin
      Ir.IntTbl.replace dead i.iid ();
      pending := i :: !pending
    end
  in
  let release (o : Ir.operand) =
    match o with
    | Ir.Var v -> (
        let n = Ir.IntTbl.find uses v - 1 in
        Ir.IntTbl.replace uses v n;
        match Ir.IntTbl.find_opt by_id v with
        | Some j when n = 0 -> kill j
        | _ -> ())
    | Ir.Const _ -> ()
  in
  Ir.IntTbl.iter
    (fun iid i -> if not (Ir.IntTbl.mem uses iid) then kill i)
    by_id;
  let rec drain () =
    match !pending with
    | [] -> ()
    | i :: rest ->
        pending := rest;
        Ir.iter_operands release i;
        drain ()
  in
  drain ();
  if Ir.IntTbl.length dead > 0 then
    List.iter
      (fun (b : Ir.block) ->
        let dead_here (i : Ir.instr) = Ir.IntTbl.mem dead i.iid in
        if List.exists dead_here b.instrs then
          b.instrs <- List.filter (fun i -> not (dead_here i)) b.instrs)
      f.blocks;
  Ir.IntTbl.length dead

let run (m : Ir.modul) = List.fold_left (fun n f -> n + run_func f) 0 m.funcs
