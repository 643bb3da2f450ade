open Bs_ir

(* SSA repair on a complete CFG.

   Used by the squeezer's pass ③: once handlers provide alternative
   definitions for variables that were live at the entry of re-executed
   blocks, each such variable has several definitions and SSA must be
   rebuilt for its uses.  This is the Braun et al. algorithm restricted to
   sealed (fully-known) CFGs: walk predecessors on demand, inserting phis
   at joins and removing the trivial ones. *)

type ctx = {
  f : Ir.func;
  width : int;
  preds : (int, int list) Hashtbl.t;
  defs : (int, Ir.operand) Hashtbl.t;  (* block id -> reaching definition *)
  name : string;
  (* forwarding of removed trivial phis (values captured mid-construction
     can reference a phi deleted by a nested removal) *)
  forward : (int, Ir.operand) Hashtbl.t;
}

let rec resolve ctx (o : Ir.operand) =
  match o with
  | Ir.Var v -> (
      match Hashtbl.find_opt ctx.forward v with
      | Some o' -> resolve ctx o'
      | None -> o)
  | Ir.Const _ -> o

let rec read ctx bid : Ir.operand =
  match Hashtbl.find_opt ctx.defs bid with
  | Some v -> resolve ctx v
  | None -> (
      let ps = match Hashtbl.find_opt ctx.preds bid with Some l -> l | None -> [] in
      match ps with
      | [] ->
          (* unreachable or entry without def: undefined-but-dead *)
          Ir.const ~width:ctx.width 0L
      | [ p ] ->
          let v = read ctx p in
          Hashtbl.replace ctx.defs bid v;
          v
      | _ ->
          let b = Ir.block ctx.f bid in
          let phi =
            Ir.mk_instr ctx.f ~name:ctx.name ~width:ctx.width (Ir.Phi [])
          in
          let phis, rest = List.partition Ir.is_phi b.Ir.instrs in
          b.Ir.instrs <- phis @ [ phi ] @ rest;
          Hashtbl.replace ctx.defs bid (Ir.Var phi.Ir.iid);
          let incoming =
            List.map (fun p -> (p, resolve ctx (read ctx p))) ps
          in
          phi.Ir.op <- Ir.Phi incoming;
          (* trivial-phi removal *)
          let self = Ir.Var phi.Ir.iid in
          let distinct =
            List.sort_uniq compare
              (List.filter (fun v -> v <> self) (List.map snd incoming))
          in
          (match distinct with
          | [ unique ] ->
              Hashtbl.replace ctx.forward phi.Ir.iid unique;
              Ir.replace_all_uses ctx.f ~old_id:phi.Ir.iid ~by:unique;
              Hashtbl.iter
                (fun k v -> if v = self then Hashtbl.replace ctx.defs k unique)
                ctx.defs;
              b.Ir.instrs <-
                List.filter (fun (i : Ir.instr) -> i.Ir.iid <> phi.Ir.iid) b.Ir.instrs;
              Hashtbl.replace ctx.defs bid unique;
              unique
          | _ -> Ir.Var phi.Ir.iid))

(* Rewire the uses of [var] ([users], in layout order, each with its
   block) given its defining block. *)
let rewire (f : Ir.func) ~(var : int) ~def_block ~users
    ~(extra_defs : (int * Ir.operand) list) ~(preds : (int, int list) Hashtbl.t) =
  let vi = Ir.instr f var in
  let ctx =
    { f; width = vi.width; preds; defs = Hashtbl.create 16;
      name = (if vi.iname = "" then "rep" else vi.iname ^ ".rep");
      forward = Hashtbl.create 8 }
  in
  Hashtbl.replace ctx.defs def_block (Ir.Var var);
  List.iter (fun (bid, v) -> Hashtbl.replace ctx.defs bid v) extra_defs;
  (* Rewrite uses.  Non-phi uses read at their own block; a use in the
     def's own block stays (straight-line dominance).  Phi uses read at the
     incoming predecessor. *)
  List.iter
    (fun ((b : Ir.block), (i : Ir.instr)) ->
      match i.Ir.op with
      | Ir.Phi incoming ->
          (* Phi operands read at the incoming predecessor.  This
             applies to the variable's own defining phi too: a
             self-loop operand (phi [init, self]) must observe the
             reaching definition at the latch, which an extra
             definition along that path may have changed. *)
          i.Ir.op <-
            Ir.Phi
              (List.map
                 (fun (p, v) ->
                   match v with
                   | Ir.Var x when x = var -> (p, read ctx p)
                   | _ -> (p, v))
                 incoming)
      | _ ->
          if i.Ir.iid <> var && b.Ir.bid <> def_block then
            Ir.map_operands
              (fun o ->
                match o with
                | Ir.Var x when x = var -> read ctx b.Ir.bid
                | o -> o)
              i)
    users

(** [repair_all f ~vars ~preds] repairs each [(var, extra_defs)] of [vars]
    in turn, as {!repair} would, finding every variable's defining block
    and uses in one pass over [f].  Each repair rewrites only its own
    variable's operands and adds phis that read only its own values, so
    the uses found up front are exactly those each repair would find. *)
let repair_all (f : Ir.func) ~(vars : (int * (int * Ir.operand) list) list)
    ~(preds : (int, int list) Hashtbl.t) =
  let tracked = Hashtbl.create 64 in
  List.iter (fun (v, _) -> Hashtbl.replace tracked v ()) vars;
  let def_block = Hashtbl.create 64 in
  (* var -> its users, newest first; an instruction reading a variable
     twice is listed once *)
  let users : (int, (Ir.block * Ir.instr) list) Hashtbl.t = Hashtbl.create 64 in
  let use b (i : Ir.instr) = function
    | Ir.Var x when Hashtbl.mem tracked x -> (
        match Hashtbl.find_opt users x with
        | Some ((_, j) :: _) when j == i -> ()
        | cur ->
            Hashtbl.replace users x ((b, i) :: Option.value cur ~default:[]))
    | _ -> ()
  in
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun (i : Ir.instr) ->
          if Hashtbl.mem tracked i.Ir.iid && not (Hashtbl.mem def_block i.Ir.iid)
          then Hashtbl.replace def_block i.Ir.iid b.Ir.bid;
          match i.Ir.op with
          | Ir.Phi incoming -> List.iter (fun (_, v) -> use b i v) incoming
          | _ -> List.iter (use b i) (Ir.operands i))
        b.Ir.instrs)
    f.blocks;
  List.iter
    (fun (var, extra_defs) ->
      let def_block =
        match Hashtbl.find_opt def_block var with
        | Some b -> b
        | None ->
            invalid_arg "Ssa_repair.repair: variable has no defining block"
      in
      let users =
        List.rev (Option.value (Hashtbl.find_opt users var) ~default:[])
      in
      rewire f ~var ~def_block ~users ~extra_defs ~preds)
    vars

(** [repair f ~var ~extra_defs ~preds] rewires every use of the SSA
    variable [var] so it observes the correct reaching definition given the
    additional definitions [extra_defs] (block id, value).  [preds] is the
    predecessor relation of the *final* CFG (including handler branch
    edges).  The block defining [var] keeps [var] as its local
    definition. *)
let repair (f : Ir.func) ~(var : int) ~(extra_defs : (int * Ir.operand) list)
    ~(preds : (int, int list) Hashtbl.t) =
  repair_all f ~vars:[ (var, extra_defs) ] ~preds
