(* SSA construction (Braun et al., "Simple and Efficient Construction of
   Static Single Assignment Form", CC 2013), shared by the front end's
   lowering and the squeezer's SSA repair.

   Definitions are recorded per (block, variable).  A read walks
   predecessors on demand: a block with one predecessor reads there, a
   join gets a phi written before its predecessors are visited (which
   breaks cycles), and a block whose predecessors are not all known yet
   gets an operandless phi that [seal] fills.

   A phi that merges a single value is removed, and so, recursively, are
   the phis that read it and become trivial in turn.  Removal is deferred:
   the removed phi stands for its replacement through [forward] (the
   replacement can itself be removed while recursing over its users),
   every read resolves through the map, and [finish] deletes the removed
   phis and rewrites the operands naming them in one pass. *)

module Key = Hashtbl.Make (struct
  type t = int * int

  let equal (a, b) (c, d) = a = c && b = d
  let hash = Hashtbl.hash
end)

type t = {
  f : Ir.func;
  preds : int -> int list;
  phi_name : int -> string;
  defs : Ir.operand Key.t;                        (* (block, var) -> value *)
  sealed : unit Ir.IntTbl.t;
  incomplete : (int * Ir.instr) list ref Ir.IntTbl.t;  (* block -> (var, phi) *)
  forward : Ir.operand Ir.IntTbl.t;               (* removed phi -> replacement *)
  phi_users : Ir.instr list Ir.IntTbl.t;          (* phi -> the phis reading it *)
}

let create f ~preds ~phi_name =
  { f; preds; phi_name; defs = Key.create 64; sealed = Ir.IntTbl.create 16;
    incomplete = Ir.IntTbl.create 8; forward = Ir.IntTbl.create 16;
    phi_users = Ir.IntTbl.create 16 }

let rec resolve t (o : Ir.operand) =
  match o with
  | Ir.Var v -> (
      match Ir.IntTbl.find_opt t.forward v with
      | Some o' -> resolve t o'
      | None -> o)
  | Ir.Const _ -> o

let write t ~block ~var v = Key.replace t.defs (block, var) v

let users t id = Option.value (Ir.IntTbl.find_opt t.phi_users id) ~default:[]

let is_phi_var t = function
  | Ir.Var x -> Ir.is_phi (Ir.instr t.f x)
  | Ir.Const _ -> false

let track_phi t (phi : Ir.instr) =
  match phi.Ir.op with
  | Ir.Phi incoming ->
      List.iter
        (fun (_, (v : Ir.operand)) ->
          match v with
          | Ir.Var x when x <> phi.Ir.iid && is_phi_var t v ->
              Ir.IntTbl.replace t.phi_users x (phi :: users t x)
          | _ -> ())
        incoming
  | _ -> ()

let new_phi t block var width =
  let i = Ir.mk_instr t.f ~name:(t.phi_name var) ~width (Ir.Phi []) in
  Ir.insert_phi (Ir.block t.f block) i;
  i

let rec read t ~block ~var ~width =
  match Key.find_opt t.defs (block, var) with
  | Some v -> resolve t v
  | None ->
      let v =
        if not (Ir.IntTbl.mem t.sealed block) then begin
          let phi = new_phi t block var width in
          (match Ir.IntTbl.find_opt t.incomplete block with
          | Some pending -> pending := (var, phi) :: !pending
          | None -> Ir.IntTbl.replace t.incomplete block (ref [ (var, phi) ]));
          Ir.Var phi.Ir.iid
        end
        else
          match t.preds block with
          | [] -> Ir.const ~width 0L (* unreachable block *)
          | [ p ] -> read t ~block:p ~var ~width
          | _ ->
              let phi = new_phi t block var width in
              write t ~block ~var (Ir.Var phi.Ir.iid);
              add_phi_operands t block var phi
      in
      let v = resolve t v in
      write t ~block ~var v;
      v

and add_phi_operands t block var (phi : Ir.instr) =
  phi.Ir.op <-
    Ir.Phi
      (List.map
         (fun p -> (p, read t ~block:p ~var ~width:phi.Ir.width))
         (t.preds block));
  track_phi t phi;
  remove_if_trivial t phi

and remove_if_trivial t (phi : Ir.instr) =
  let self = Ir.Var phi.Ir.iid in
  match phi.Ir.op with
  | Ir.Phi incoming -> (
      (* an incoming that names a removed phi stands for its replacement *)
      match
        List.sort_uniq compare
          (List.filter
             (fun v -> v <> self)
             (List.map (fun (_, v) -> resolve t v) incoming))
      with
      | [ unique ] ->
          Ir.IntTbl.replace t.forward phi.Ir.iid unique;
          let readers = users t phi.Ir.iid in
          (* the phis that read this one now read [unique] *)
          (match unique with
          | Ir.Var u when is_phi_var t unique ->
              Ir.IntTbl.replace t.phi_users u (readers @ users t u)
          | _ -> ());
          List.iter
            (fun (u : Ir.instr) ->
              if u.Ir.iid <> phi.Ir.iid && not (Ir.IntTbl.mem t.forward u.Ir.iid)
              then ignore (remove_if_trivial t u))
            readers;
          resolve t unique
      | _ -> self)
  | _ -> self

let seal t block =
  if not (Ir.IntTbl.mem t.sealed block) then begin
    (match Ir.IntTbl.find_opt t.incomplete block with
    | Some pending ->
        List.iter
          (fun (var, phi) -> ignore (add_phi_operands t block var phi))
          !pending;
        Ir.IntTbl.remove t.incomplete block
    | None -> ());
    Ir.IntTbl.replace t.sealed block ()
  end

let finish t =
  if Ir.IntTbl.length t.forward > 0 then
    List.iter
      (fun (b : Ir.block) ->
        b.Ir.instrs <-
          List.filter
            (fun (i : Ir.instr) -> not (Ir.IntTbl.mem t.forward i.Ir.iid))
            b.Ir.instrs;
        List.iter (Ir.map_operands (resolve t)) b.Ir.instrs)
      t.f.Ir.blocks
