open Bs_ir

(* Compare elimination (§3.2.4).

   A compare between a speculated variable and a constant too large for
   the slice is decided by speculation alone: while execution remains in
   CFG_spec, every committed speculative truncate of [v] proves
   [v < 2^8], so the comparison's outcome is a constant.  The speculative
   source must stay alive — control flow now depends on its speculation
   outcome — which DCE guarantees by never deleting speculative
   instructions.

   Accepted evidence that the compared value fits the slice:
   - the operand is itself a squeezed (8-bit speculative) value, possibly
     behind the zero-extension the squeezer inserted for wide consumers;
   - a speculative truncate (or fused speculative load) of the operand
     dominates the compare: had it misspeculated, control would already
     have left CFG_spec.

   The second argument holds only inside CFG_spec.  A block reachable
   from a handler (CFG_orig, and anything after it) runs only after some
   speculation failed, possibly the very truncate that would justify the
   fold; and under the SIR predecessor relation a region entered at the
   function entry dominates its own handler and what lies behind it.  No
   compare in such a block is folded. *)

let slice = Specops.slice_width

let decide (op : Ir.cmpop) =
  (* value < 2^8 <= c *)
  match op with
  | Ir.Ult | Ir.Ule -> Some 1L
  | Ir.Ugt | Ir.Uge -> Some 0L
  | Ir.Eq -> Some 0L
  | Ir.Ne -> Some 1L
  | Ir.Slt | Ir.Sle | Ir.Sgt | Ir.Sge -> None

let mirror : Ir.cmpop -> Ir.cmpop = function
  | Ir.Ult -> Ir.Ugt | Ir.Ule -> Ir.Uge
  | Ir.Ugt -> Ir.Ult | Ir.Uge -> Ir.Ule
  | other -> other

let run_func ?remarks (f : Ir.func) =
  let remark r = match remarks with Some sink -> sink r | None -> () in
  let eliminated = ref 0 in
  (* index: variable -> speculative truncates of it, with their block *)
  let spec_truncs : (int, int list) Hashtbl.t = Hashtbl.create 16 in
  let block_of : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let pos_of : (int, int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (b : Ir.block) ->
      List.iteri
        (fun k (i : Ir.instr) ->
          Hashtbl.replace block_of i.iid b.bid;
          Hashtbl.replace pos_of i.iid k;
          match i.op with
          | Ir.Cast (Ir.TruncCast, Ir.Var v)
            when i.speculative && i.width = slice ->
              let cur = try Hashtbl.find spec_truncs v with Not_found -> [] in
              Hashtbl.replace spec_truncs v (i.iid :: cur)
          | _ -> ())
        b.instrs)
    f.blocks;
  let dom = lazy (Dom.compute f) in
  let after_handler = Hashtbl.create 16 in
  let rec reach bid =
    if not (Hashtbl.mem after_handler bid) then begin
      Hashtbl.replace after_handler bid ();
      List.iter reach (Ir.succs (Ir.block f bid))
    end
  in
  List.iter (fun (r : Ir.region) -> reach r.Ir.rhandler) f.regions;
  (* Is [o] proven to fit the slice at instruction [at]? *)
  let fits_at (o : Ir.operand) (at : Ir.instr) =
    match o with
    | Ir.Const _ -> false
    | Ir.Var v -> (
        let vi = Ir.instr f v in
        let direct =
          (vi.speculative && vi.width = slice)
          ||
          match vi.op with
          | Ir.Cast (Ir.Zext, Ir.Var x) ->
              let xi = Ir.instr f x in
              xi.speculative && xi.width = slice
          | _ -> false
        in
        direct
        ||
        match Hashtbl.find_opt spec_truncs v with
        | None -> false
        | Some truncs ->
            let at_block = Hashtbl.find block_of at.iid in
            List.exists
              (fun t ->
                let tb = Hashtbl.find block_of t in
                if tb = at_block then Hashtbl.find pos_of t < Hashtbl.find pos_of at.iid
                else Dom.strictly_dominates (Lazy.force dom) tb at_block)
              truncs)
  in
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun (i : Ir.instr) ->
          let fold op a c =
            if
              Width.required_bits c.Ir.cval > slice
              && (not (Hashtbl.mem after_handler b.bid))
              && fits_at a i
            then
              match decide op with
              | Some v ->
                  Ir.replace_all_uses f ~old_id:i.iid ~by:(Ir.const ~width:1 v);
                  incr eliminated;
                  let var =
                    if i.iname <> "" then i.iname
                    else Printf.sprintf "%%%d" i.iid
                  in
                  remark
                    (Bs_obs.Remark.compare_elim ~fn:f.fname ~var ~line:i.line
                       (v <> 0L))
              | None -> ()
          in
          match i.op with
          | Ir.Cmp (op, a, Ir.Const c) -> fold op a c
          | Ir.Cmp (op, Ir.Const c, a) -> fold (mirror op) a c
          | _ -> ())
        b.instrs)
    f.blocks;
  !eliminated

let run ?remarks (m : Ir.modul) =
  List.fold_left (fun n f -> n + run_func ?remarks f) 0 m.funcs
