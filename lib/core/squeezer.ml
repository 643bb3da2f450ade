open Bs_ir
open Bs_interp

(* The squeezer (§3.2.3): speculative bitwidth reduction.

   Pass ① (CFG preparation) lives in {!Cfg_prep}.  This module implements
   passes ② and ③:

   ② duplicate the CFG into CFG_spec (the blocks execution enters) and
     CFG_orig (the full-width fallback), then retype every squeezable
     variable in CFG_spec at the 8-bit slice width, inserting speculative
     truncates for wide operands and zero-extensions where squeezed values
     feed full-width consumers;

   ③ for every CFG_spec block that can misspeculate, create a speculative
     region and a handler that extends the live state back to its original
     width and branches to the block's CFG_orig clone, then repair SSA so
     the φ-merge of equation (8) materialises at every join.

   Equation (9)'s BB_clone isolation is not materialised as extra blocks;
   the same guarantee (no register of a speculative region may be reused
   while the region can still misspeculate) is enforced by the SMIR
   predecessor relation of equation (2) during register allocation, which
   extends every region definition's live range to the handler. *)

type stats = {
  mutable squeezed : int;       (* instructions re-typed to 8 bits *)
  mutable truncs : int;         (* speculative truncates inserted *)
  mutable exts : int;           (* zero-extensions inserted *)
  mutable regions : int;        (* speculative regions created *)
}

let fresh_stats () = { squeezed = 0; truncs = 0; exts = 0; regions = 0 }

module IntSet = Set.Make (Int)
module IntMap = Map.Make (Int)

(* --- eligibility (the Squeezable? relation, equation 3) --------------- *)

let slice = Specops.slice_width

let target_ok profile fname iid =
  match Profile.target profile Profile.Hmax ~func:fname ~iid with
  | Some _ -> true
  | None -> false

let operand_target profile heuristic (f : Ir.func) fname (o : Ir.operand) =
  match o with
  | Ir.Const c -> if Width.fits slice c.cval then Some slice else Some 64
  | Ir.Var v -> (
      let w = (Ir.instr f v).width in
      if w <= slice then Some slice
      else
        match Profile.target profile heuristic ~func:fname ~iid:v with
        | Some t -> Some t
        | None -> None)

(** [squeezable profile heuristic f i] decides membership in the squeezed
    set: a speculative machine operation must exist, the defining block
    must be idempotent, and the heuristic's target for the variable and
    all its operands must fit the slice (the BW formula of §3.2.2). *)
let squeezable profile heuristic (f : Ir.func) (b : Ir.block)
    idempotent_of (i : Ir.instr) =
  Specops.speculative_op i.op
  &&
  let fname = f.fname in
  let operands_fit () =
    List.for_all
      (fun o ->
        match operand_target profile heuristic f fname o with
        | Some t -> t <= slice
        | None -> false)
      (Ir.operands i)
  in
  match i.op with
  | Ir.Cmp (_, a, c) ->
      let w = Ir.operand_width f a in
      ignore c;
      w > slice && w <= 64 && idempotent_of b.bid && operands_fit ()
  | Ir.Phi incoming ->
      i.width > slice
      && target_ok profile fname i.iid
      && (match Profile.target profile heuristic ~func:fname ~iid:i.iid with
         | Some t -> t <= slice
         | None -> false)
      && operands_fit ()
      (* A truncate for a wide incoming lands at the end of the
         predecessor block; that block must be idempotent (it can become a
         speculative region) and must contain no phis — a region whose
         re-executed clone starts with phis would need handler incomings
         that equation (6) deliberately rules out. *)
      && List.for_all
           (fun (p, v) ->
             match v with
             | Ir.Const _ -> true
             | Ir.Var x ->
                 let narrow = (Ir.instr f x).width <= slice in
                 narrow
                 || (idempotent_of p
                    && not
                         (List.exists Ir.is_phi (Ir.block f p).instrs)))
           incoming
  | Ir.Bin _ ->
      i.width > slice
      && idempotent_of b.bid
      && (match Profile.target profile heuristic ~func:fname ~iid:i.iid with
         | Some t -> t <= slice
         | None -> false)
      && operands_fit ()
  | _ -> false

(* --- the transformation ------------------------------------------------ *)

let run_func ?remarks (m : Ir.modul) (f : Ir.func) ~profile ~heuristic :
    stats =
  ignore m;
  let remark r = match remarks with Some sink -> sink r | None -> () in
  let var_name (i : Ir.instr) =
    if i.iname <> "" then i.iname else Printf.sprintf "%%%d" i.iid
  in
  let st = fresh_stats () in
  let idempotent_tbl = Hashtbl.create 16 in
  List.iter
    (fun (b : Ir.block) ->
      Hashtbl.replace idempotent_tbl b.bid (Specops.idempotent_block b))
    f.blocks;
  let idempotent_of bid =
    match Hashtbl.find_opt idempotent_tbl bid with Some x -> x | None -> false
  in
  (* Squeezed set S. *)
  let s_set = ref IntSet.empty in
  let orig_width : (int, int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun (i : Ir.instr) ->
          if squeezable profile heuristic f b idempotent_of i then begin
            s_set := IntSet.add i.iid !s_set;
            Hashtbl.replace orig_width i.iid i.width
          end)
        b.instrs)
    f.blocks;
  (* Cost-aware pruning: squeezing an instruction whose operands and
     consumers are mostly full-width buys slice arithmetic at the price of
     a truncate per wide operand and an extension per wide consumer.  Keep
     a member only while it needs at most one boundary cast; a wide load
     feeding a single speculative truncate is free (it fuses into the
     speculative load of Table 1).  Iterated to a fixpoint because pruning
     one member adds boundary casts to its neighbours. *)
  let uses_tbl = Ir.uses f in
  let is_free_operand o =
    match o with
    | Ir.Const _ -> true
    | Ir.Var v ->
        let vi = Ir.instr f v in
        vi.width <= slice
        || IntSet.mem v !s_set
        || (match vi.op with
           (* a single-use wide load fuses into Table 1's speculative load *)
           | Ir.Load l when (not l.l_volatile) && vi.width = 32 -> (
               match Hashtbl.find_opt uses_tbl v with
               | Some [ _ ] -> true
               | _ -> false)
           (* a slice-mask result becomes an exact slice move under bitmask
              elision (RQ3): its truncate is free and never misspeculates *)
           | Ir.Bin (Ir.And, _, Ir.Const c) when c.cval = Width.mask slice ->
               true
           | Ir.Bin (Ir.And, Ir.Const c, _) when c.cval = Width.mask slice ->
               true
           | _ -> false)
  in
  (* A full-width consumer that takes the value through a slice anyway
     (byte store, truncate back down) costs no extension. *)
  let user_free iid (u : Ir.instr) =
    IntSet.mem u.Ir.iid !s_set
    ||
    match u.Ir.op with
    | Ir.Store st -> (
        st.s_width = slice
        && match st.s_value with Ir.Var v -> v = iid | _ -> false)
    | Ir.Cast (Ir.TruncCast, _) -> u.Ir.width <= slice
    | _ -> false
  in
  let boundary_cost (i : Ir.instr) =
    let ops = List.sort_uniq compare (Ir.operands i) in
    let truncs =
      List.length (List.filter (fun o -> not (is_free_operand o)) ops)
    in
    let exts =
      match i.op with
      | Ir.Cmp _ -> 0 (* i1 result needs no widening *)
      | _ -> (
          match Hashtbl.find_opt uses_tbl i.iid with
          | Some users
            when List.exists (fun u -> not (user_free i.iid u)) users ->
              1
          | _ -> 0)
    in
    truncs + exts
  in
  let candidates = !s_set in
  let pruning = ref true in
  while !pruning do
    pruning := false;
    IntSet.iter
      (fun iid ->
        let i = Ir.instr f iid in
        if boundary_cost i > 1 then begin
          s_set := IntSet.remove iid !s_set;
          pruning := true
        end)
      !s_set
  done;
  (* Report each candidate the cost model pruned (IntSet order: stable). *)
  IntSet.iter
    (fun iid ->
      let i = Ir.instr f iid in
      remark
        (Bs_obs.Remark.rejected ~fn:f.fname ~var:(var_name i) ~line:i.line
           (Printf.sprintf "boundary cost %d > 1 cast" (boundary_cost i))))
    (IntSet.diff candidates !s_set);
  if IntSet.is_empty !s_set then st
  else begin
    let spec_blocks = f.blocks in
    (* ② step 1: duplicate the CFG.  The existing blocks become CFG_spec
       (execution enters them); the clones are CFG_orig. *)
    let cm, _orig_blocks = Ir.clone_blocks f spec_blocks ~suffix:".o" in
    let orig_of_block bid = Hashtbl.find cm.Ir.cm_block bid in
    let spec_of_var =
      (* inverse of cm_instr: orig iid -> spec iid *)
      let inv = Hashtbl.create 64 in
      Hashtbl.iter (fun k v -> Hashtbl.replace inv v k) cm.Ir.cm_instr;
      fun v -> Hashtbl.find_opt inv v
    in
    (* ② step 2a: retype S members. *)
    IntSet.iter
      (fun iid ->
        let i = Ir.instr f iid in
        let from_ =
          match i.op with
          | Ir.Cmp (_, a, b) ->
              (* an i1-result compare is squeezed via its operands: report
                 the comparison width, not the result width *)
              let ow o =
                match o with
                | Ir.Var v when Hashtbl.mem orig_width v ->
                    Hashtbl.find orig_width v
                | o -> Ir.operand_width f o
              in
              max (ow a) (ow b)
          | _ -> (
              match Hashtbl.find_opt orig_width iid with
              | Some w -> w
              | None -> i.width)
        in
        (match i.op with
        | Ir.Cmp _ -> () (* result stays i1; operands are squeezed below *)
        | _ -> i.width <- slice);
        i.speculative <- true;
        st.squeezed <- st.squeezed + 1;
        remark
          (Bs_obs.Remark.squeezed ~fn:f.fname ~var:(var_name i) ~line:i.line
             ~from_ ~to_:slice))
      !s_set;
    (* ② step 2b: operand narrowing. *)
    (* caches are keyed by (block, placement kind, value): an End-placed
       cast must never satisfy a Before-placed request, which would produce
       a use before its definition *)
    let trunc_cache : (int * bool * int, Ir.operand) Hashtbl.t = Hashtbl.create 32 in
    (* A cast goes immediately before its anchor instruction (a block's
       terminator, for a cast placed at the block's end), after the casts
       requested earlier for the same anchor.  Requests are queued per
       anchor and [place b] rebuilds [b]'s list once; it runs before a
       step walks a block, so the walk sees the casts that blocks walked
       earlier placed at its end. *)
    let queued : (int, Ir.instr list) Hashtbl.t = Hashtbl.create 64 in
    let dirty : (int, unit) Hashtbl.t = Hashtbl.create 16 in
    let terminators : (int, Ir.instr) Hashtbl.t = Hashtbl.create 16 in
    let insert_before (b : Ir.block) (anchor : Ir.instr) (ni : Ir.instr) =
      let earlier =
        Option.value (Hashtbl.find_opt queued anchor.Ir.iid) ~default:[]
      in
      Hashtbl.replace queued anchor.Ir.iid (ni :: earlier);
      Hashtbl.replace dirty b.Ir.bid ()
    in
    let insert_at_end (b : Ir.block) (ni : Ir.instr) =
      let t =
        match Hashtbl.find_opt terminators b.Ir.bid with
        | Some t -> t
        | None ->
            let t = Ir.terminator b in
            Hashtbl.replace terminators b.Ir.bid t;
            t
      in
      insert_before b t ni
    in
    let place (b : Ir.block) =
      if Hashtbl.mem dirty b.Ir.bid then begin
        Hashtbl.remove dirty b.Ir.bid;
        b.instrs <-
          List.concat_map
            (fun (x : Ir.instr) ->
              match Hashtbl.find_opt queued x.Ir.iid with
              | None -> [ x ]
              | Some casts ->
                  Hashtbl.remove queued x.Ir.iid;
                  List.rev (x :: casts))
            b.instrs
      end
    in
    let get8 ~(where : [ `Before of Ir.block * Ir.instr | `End of Ir.block ])
        (o : Ir.operand) =
      match o with
      | Ir.Const c -> Ir.const ~width:slice c.cval
      | Ir.Var v ->
          let vi = Ir.instr f v in
          if vi.width <= slice then o
          else
            let key =
              match where with
              | `Before (b, _) -> (b.Ir.bid, false, v)
              | `End b -> (b.Ir.bid, true, v)
            in
            (match Hashtbl.find_opt trunc_cache key with
            | Some cached -> cached
            | None ->
                let line =
                  (* parameters carry no line; fall back to the consumer *)
                  if vi.line > 0 then vi.line
                  else
                    match where with
                    | `Before (_, (anchor : Ir.instr)) -> anchor.line
                    | `End _ -> 0
                in
                let t =
                  Ir.mk_instr f ~name:(vi.iname ^ ".sq") ~line ~width:slice
                    (Ir.Cast (Ir.TruncCast, o))
                in
                t.speculative <- true;
                st.truncs <- st.truncs + 1;
                (match where with
                | `Before (b, anchor) -> insert_before b anchor t
                | `End b -> insert_at_end b t);
                let res = Ir.Var t.iid in
                Hashtbl.replace trunc_cache key res;
                res)
    in
    List.iter
      (fun (b : Ir.block) ->
        place b;
        List.iter
          (fun (i : Ir.instr) ->
            if IntSet.mem i.iid !s_set then
              match i.op with
              | Ir.Phi incoming ->
                  i.op <-
                    Ir.Phi
                      (List.map
                         (fun (p, v) ->
                           (p, get8 ~where:(`End (Ir.block f p)) v))
                         incoming)
              | _ ->
                  Ir.map_operands (fun o -> get8 ~where:(`Before (b, i)) o) i)
          b.instrs)
      spec_blocks;
    List.iter place spec_blocks;
    (* ② step 2c: widen squeezed values feeding full-width consumers. *)
    let ext_cache : (int * bool * int, Ir.operand) Hashtbl.t = Hashtbl.create 32 in
    let get_wide ~where (v : int) =
      let ow = Hashtbl.find orig_width v in
      let key =
        match where with
        | `Before (b, _) -> (b.Ir.bid, false, v)
        | `End b -> (b.Ir.bid, true, v)
      in
      match Hashtbl.find_opt ext_cache key with
      | Some cached -> cached
      | None ->
          let vi = Ir.instr f v in
          let e =
            Ir.mk_instr f ~name:(vi.iname ^ ".w") ~line:vi.line ~width:ow
              (Ir.Cast (Ir.Zext, Ir.Var v))
          in
          st.exts <- st.exts + 1;
          (match where with
          | `Before (b, anchor) -> insert_before b anchor e
          | `End b -> insert_at_end b e);
          let res = Ir.Var e.iid in
          Hashtbl.replace ext_cache key res;
          res
    in
    List.iter
      (fun (b : Ir.block) ->
        place b;
        List.iter
          (fun (i : Ir.instr) ->
            if not (IntSet.mem i.iid !s_set) then
              match i.op with
              | Ir.Phi incoming ->
                  i.op <-
                    Ir.Phi
                      (List.map
                         (fun (p, v) ->
                           match v with
                           | Ir.Var x
                             when IntSet.mem x !s_set
                                  && (Ir.instr f x).width = slice ->
                               (p, get_wide ~where:(`End (Ir.block f p)) x)
                           | _ -> (p, v))
                         incoming)
              | _ ->
                  Ir.map_operands
                    (fun o ->
                      match o with
                      | Ir.Var x
                        when IntSet.mem x !s_set
                             && (Ir.instr f x).width = slice ->
                          get_wide ~where:(`Before (b, i)) x
                      | o -> o)
                    i)
          b.instrs)
      spec_blocks;
    List.iter place spec_blocks;
    (* Liveness snapshot before handlers exist: live-in of each CFG_orig
       block, in terms of CFG_orig variables.  Steps 2a-2c edited only
       CFG_spec, which no CFG_orig block reaches. *)
    let live = Liveness.compute ~preds:(Ir.preds_map f) f in
    (* ③ regions and handlers: one region per spec block that can actually
       misspeculate. *)
    let extra_defs : (int * Ir.operand) list IntMap.t ref = ref IntMap.empty in
    (* handlers and regions, newest first: placed with one append each *)
    let handlers = ref [] and regions = ref [] in
    List.iter
      (fun (b : Ir.block) ->
        let can_misspec =
          List.exists Specops.can_misspeculate b.instrs
        in
        if can_misspec then begin
          let orig_bid = orig_of_block b.bid in
          let handler = Ir.new_block f (b.bname ^ ".h") in
          handlers := handler :: !handlers;
          regions :=
            Ir.new_region f ~blocks:[ b.bid ] ~handler:handler.Ir.bid
            :: !regions;
          st.regions <- st.regions + 1;
          let body = ref [] in
          (* live state at the entry of the re-executed original block *)
          let li = Liveness.live_in live orig_bid in
          Liveness.IntSet.iter
            (fun v_orig ->
              let v_spec =
                match spec_of_var v_orig with
                | Some s -> s
                | None -> v_orig (* parameters are shared, not cloned *)
              in
              if v_spec <> v_orig then begin
                let wo = (Ir.instr f v_orig).width in
                let ws = (Ir.instr f v_spec).width in
                let def =
                  if ws < wo then begin
                    let e =
                      Ir.mk_instr f
                        ~name:((Ir.instr f v_spec).iname ^ ".x")
                        ~width:wo
                        (Ir.Cast (Ir.Zext, Ir.Var v_spec))
                    in
                    body := e :: !body;
                    st.exts <- st.exts + 1;
                    Ir.Var e.iid
                  end
                  else Ir.Var v_spec
                in
                extra_defs :=
                  IntMap.update v_orig
                    (fun cur ->
                      Some ((handler.Ir.bid, def) :: Option.value cur ~default:[]))
                    !extra_defs
              end)
            li;
          handler.Ir.instrs <-
            List.rev (Ir.mk_instr f ~width:0 (Ir.Br orig_bid) :: !body)
        end)
      spec_blocks;
    f.blocks <- f.blocks @ List.rev !handlers;
    f.regions <- f.regions @ List.rev !regions;
    (* ③ SSA repair: make every CFG_orig use observe the right definition
       (the φ of equation (8) appears at each join). *)
    let preds_final = Ir.preds_map f in
    Ssa_repair.repair_all f ~vars:(IntMap.bindings !extra_defs)
      ~preds:preds_final;
    (* Prune CFG_orig blocks no handler can reach (dead fallback code). *)
    let reachable = Hashtbl.create 16 in
    List.iter (fun bid -> Hashtbl.replace reachable bid ()) (Ir.reverse_postorder f);
    let dead_ids =
      List.filter_map
        (fun (b : Ir.block) ->
          if Hashtbl.mem reachable b.bid then None else Some b.bid)
        f.blocks
    in
    if dead_ids <> [] then begin
      f.blocks <-
        List.filter (fun (b : Ir.block) -> Hashtbl.mem reachable b.bid) f.blocks;
      List.iter (fun bid -> Hashtbl.remove f.btbl bid) dead_ids;
      List.iter
        (fun (b : Ir.block) ->
          List.iter
            (fun (i : Ir.instr) ->
              match i.op with
              | Ir.Phi incoming ->
                  i.op <-
                    Ir.Phi
                      (List.filter
                         (fun (p, _) -> not (List.mem p dead_ids))
                         incoming)
              | _ -> ())
            b.instrs)
        f.blocks;
      f.regions <-
        List.filter
          (fun (r : Ir.region) ->
            List.for_all (fun bid -> not (List.mem bid dead_ids)) r.rblocks
            && not (List.mem r.rhandler dead_ids))
          f.regions
    end;
    st
  end

(** Squeeze every profiled function of [m]. *)
let run ?remarks (m : Ir.modul) ~profile ~heuristic : stats =
  let total = fresh_stats () in
  List.iter
    (fun (f : Ir.func) ->
      let st = run_func ?remarks m f ~profile ~heuristic in
      total.squeezed <- total.squeezed + st.squeezed;
      total.truncs <- total.truncs + st.truncs;
      total.exts <- total.exts + st.exts;
      total.regions <- total.regions + st.regions)
    m.funcs;
  total
