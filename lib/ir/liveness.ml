(* Backward liveness over SSA variables.

   The predecessor relation is a parameter: passing {!Ir.preds_sir} gives
   the SIR semantics of §3.1.2 (handlers see values live at the region
   entry); {!Ir.preds_smir} gives the machine-level relation of equation
   (2) used by the register allocator.

   The dataflow equations, per block B and successor S:
     live_out(B) = ∪_S (live_in(S) − phi_defs(S)) ∪ phi_uses(B → S)
     live_in(B)  = gen(B) ∪ (live_out(B) − kill(B))
   where kill(B) is B's definitions and gen(B) its non-phi uses that no
   earlier definition in B covers.  Every term is per variable, so the
   least solution is found one variable at a time, by path exploration:
   from the blocks that use a variable, walk predecessors until its
   definitions.  A walk visits exactly the blocks the variable is live
   in, so the whole computation costs the size of its answer plus one
   pass over the code.  [vars] restricts the walks to a subset of the
   variables. *)

module IntSet = Set.Make (Int)

(* The walks leave each block's variables in a list; a block's set is
   built the first time it is asked for, so a caller that reads a few
   blocks (the verifier reads handlers only) never pays for the rest. *)
type t = {
  pos : (int, int) Hashtbl.t;  (* block id -> layout position *)
  ins : int list array;
  outs : int list array;
  in_sets : IntSet.t option array;
  out_sets : IntSet.t option array;
}

(* A phi use of [v] along edge (p -> b) is live-out of p, not live-in of b.
   SSA liveness handles this by seeding the phi's operands into the
   predecessors' live-out sets. *)

type var_sites = {
  mutable defs : int list;       (* blocks defining the variable *)
  mutable phi_def : int list;    (* blocks holding it as a phi *)
  mutable exposed : int list;    (* blocks where a use precedes every def *)
  mutable edge_uses : int list;  (* preds whose phi edge reads it *)
  mutable scan_def : int;        (* last block scanned that defines it *)
  mutable scan_use : int;        (* last block scanned with an exposed use *)
}

let compute ?preds ?vars (f : Ir.func) =
  let preds = match preds with Some p -> p | None -> Ir.preds_sir f in
  (* With no variable tracked there is nothing to scan.  Tracked ids are
     marked in a byte per id of the function (an id beyond them, which
     only hand-built code has, is looked up in [vars]). *)
  let scan = match vars with Some s -> not (IntSet.is_empty s) | None -> true in
  let tracked =
    match vars with
    | None -> fun _ -> true
    | Some s ->
        let nids = if scan then f.next_id else 0 in
        let marks = Bytes.make nids '\000' in
        IntSet.iter (fun v -> if v >= 0 && v < nids then Bytes.set marks v '\001') s;
        fun v ->
          if v >= 0 && v < nids then Bytes.get marks v = '\001' else IntSet.mem v s
  in
  let blocks = Array.of_list f.blocks in
  let n = Array.length blocks in
  let pos = Hashtbl.create (2 * n + 1) in
  Array.iteri (fun k (b : Ir.block) -> Hashtbl.replace pos b.bid k) blocks;
  (* successor edges derived from preds so the two relations stay duals;
     [pred_pos] is their reverse, by layout position *)
  let succs = Array.make n [] and pred_pos = Array.make n [] in
  Hashtbl.iter
    (fun s ps ->
      List.iter
        (fun p ->
          match Hashtbl.find_opt pos p with
          | None -> ()
          | Some kp ->
              if not (List.mem s succs.(kp)) then begin
                ignore (Ir.block f s);
                let ks = Hashtbl.find pos s in
                succs.(kp) <- s :: succs.(kp);
                pred_pos.(ks) <- kp :: pred_pos.(ks)
              end)
        ps)
    preds;
  let sites : var_sites Ir.IntTbl.t = Ir.IntTbl.create 64 in
  let sites_of v =
    match Ir.IntTbl.find_opt sites v with
    | Some s -> s
    | None ->
        let s =
          { defs = []; phi_def = []; exposed = []; edge_uses = [];
            scan_def = -1; scan_use = -1 }
        in
        Ir.IntTbl.replace sites v s;
        s
  in
  (* one pass over the code: an instruction's uses are exposed unless an
     earlier instruction of the block defines them *)
  let scan_block k (b : Ir.block) =
    List.iter
      (fun (i : Ir.instr) ->
        (match i.op with
        | Phi incoming ->
            if tracked i.iid then begin
              let s = sites_of i.iid in
              s.phi_def <- k :: s.phi_def
            end;
            (* the first incoming per predecessor is the one read *)
            ignore
              (List.fold_left
                 (fun seen (p, o) ->
                   if List.mem p seen then seen
                   else begin
                     (match (o, Hashtbl.find_opt pos p) with
                     | Ir.Var v, Some kp
                       when tracked v && List.mem b.bid succs.(kp) ->
                         let s = sites_of v in
                         s.edge_uses <- kp :: s.edge_uses
                     | _ -> ());
                     p :: seen
                   end)
                 [] incoming)
        | _ ->
            Ir.iter_operands
              (function
                | Ir.Var v when tracked v ->
                    let s = sites_of v in
                    if s.scan_def <> k && s.scan_use <> k then begin
                      s.scan_use <- k;
                      s.exposed <- k :: s.exposed
                    end
                | _ -> ())
              i);
        if Ir.has_result i && tracked i.iid then begin
          let s = sites_of i.iid in
          if s.scan_def <> k then begin
            s.scan_def <- k;
            s.defs <- k :: s.defs
          end
        end)
      b.instrs
  in
  if scan then Array.iteri scan_block blocks;
  (* per-variable walks; a block's mark holds the stamp of the last
     variable found live there *)
  let in_mark = Array.make n (-1) and out_mark = Array.make n (-1) in
  let kill_mark = Array.make n (-1) and phi_mark = Array.make n (-1) in
  let ins = Array.make n [] and outs = Array.make n [] in
  let stack = ref [] in
  let stamp = ref 0 in
  Ir.IntTbl.iter
    (fun v s ->
      let st = !stamp in
      incr stamp;
      List.iter (fun k -> kill_mark.(k) <- st) s.defs;
      List.iter (fun k -> phi_mark.(k) <- st) s.phi_def;
      let live_in k =
        if in_mark.(k) <> st then begin
          in_mark.(k) <- st;
          ins.(k) <- v :: ins.(k);
          stack := k :: !stack
        end
      in
      let live_out k =
        if out_mark.(k) <> st then begin
          out_mark.(k) <- st;
          outs.(k) <- v :: outs.(k);
          if kill_mark.(k) <> st then live_in k
        end
      in
      List.iter live_in s.exposed;
      List.iter live_out s.edge_uses;
      let rec drain () =
        match !stack with
        | [] -> ()
        | k :: rest ->
            stack := rest;
            if phi_mark.(k) <> st then List.iter live_out pred_pos.(k);
            drain ()
      in
      drain ())
    sites;
  { pos; ins; outs; in_sets = Array.make n None; out_sets = Array.make n None }

let set_at t lists sets bid =
  match Hashtbl.find_opt t.pos bid with
  | None -> IntSet.empty
  | Some k -> (
      match sets.(k) with
      | Some s -> s
      | None ->
          let s = IntSet.of_list lists.(k) in
          sets.(k) <- Some s;
          s)

let live_in t bid = set_at t t.ins t.in_sets bid

let live_out t bid = set_at t t.outs t.out_sets bid
