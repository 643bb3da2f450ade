open Bs_ir
module Outcome = Bs_support.Outcome

(* Reference interpreter for SIR.

   Executes modules directly on an in-memory image.  Three roles:
   - reference semantics for differential testing of the whole pipeline;
   - the bitwidth profiler of §3.2.2 (via the [profile] option);
   - speculative execution of squeezed code: a [!speculative] instruction
     inside a speculative region that violates its misspeculation
     condition (Table 1) redirects control to the region's handler without
     writing its result, exactly like the hardware. *)

(* Raised where a trap happens, with its kind; [exec] makes it the
   [Trapped] outcome.  Malformed IR has only a message. *)
exception Trap of Outcome.trap

let malformed msg = raise (Trap (Outcome.Trap_message msg))

(* internal: unwinds to [exec]'s top level, where it becomes the
   structured [Out_of_fuel] outcome shared with the machine model *)
exception Fuel_exhausted

(* Two execution engines with identical observable behaviour:

   [Tree] walks the IR instruction lists directly, re-dispatching on
   every operand and opcode — simple, and the reference for the other.

   [Compiled] pre-compiles each function body to OCaml closures once
   per function per execution (mirroring the machine simulator's
   superblock tier): operand reads, width truncation, misspeculation
   guards, Salloc frame offsets and profiling hooks are all resolved at
   compile time, phis are pre-resolved per incoming edge, and each
   basic block becomes one fused straight-line run whose only exits are
   traps, fuel exhaustion, misspeculation redirects and terminators. *)
type engine = Tree | Compiled

type opts = {
  profile : Profile.t option;
  fuel : int;
  engine : engine;
}

let default_opts = { profile = None; fuel = 2_000_000_000; engine = Compiled }

type counters = {
  mutable steps : int;        (* dynamic IR instructions executed *)
  mutable misspecs : int;     (* misspeculation events *)
  mutable calls : int;
  sites : (string * string * int, int) Hashtbl.t;
      (* (function, variable, line) -> misspec count; totals = misspecs *)
}

type result = {
  ret : int64 option;
  steps : int;
  misspecs : int;
  calls : int;
  outcome : Outcome.t;
  misspec_sites : ((string * string * int) * int) list;
      (* per-site misspec attribution, sorted; counts sum to [misspecs] *)
}

type state = {
  m : Ir.modul;
  mem : Memimage.t;
  opts : opts;
  ctr : counters;
  mutable sp : int;           (* stack pointer for Salloc frames *)
}

(* --- the operations, defined once --------------------------------------- *)

(* Each operation's semantics at width [w], over the mask [m] = [Width.mask
   w] that the caller stages: the [eval_*] wrappers below compute it per
   call (the tree engine, constant folding), the compiled engine once per
   instruction.  The functions are inlined into the compiled engine's
   closures, where [op] is a free variable and every operand stays
   unboxed; so the signed view is [sext (64 - w)], not a call to
   [Width.sext], which would box its argument. *)

(* [v] sign-extended from bit [63 - sh]: [Width.sext (64 - sh) v] *)
let[@inline] sext sh v = Int64.shift_right (Int64.shift_left v sh) sh

let[@inline] binop (op : Ir.binop) w m a b =
  let open Int64 in
  let sh = 64 - w in
  match op with
  | Add -> logand (add a b) m
  | Sub -> logand (sub a b) m
  | Mul -> logand (mul a b) m
  | Udiv ->
      if b = 0L then raise (Trap Outcome.Division_by_zero)
      else logand (unsigned_div a b) m
  | Urem ->
      if b = 0L then raise (Trap Outcome.Division_by_zero)
      else logand (unsigned_rem a b) m
  | Sdiv ->
      if b = 0L then raise (Trap Outcome.Division_by_zero)
      else logand (div (sext sh a) (sext sh b)) m
  | Srem ->
      if b = 0L then raise (Trap Outcome.Division_by_zero)
      else logand (rem (sext sh a) (sext sh b)) m
  | And -> logand a b
  | Or -> logor a b
  | Xor -> logxor a b
  | Shl -> logand (shift_left a (to_int b land (w - 1))) m
  | Lshr ->
      logand (shift_right_logical (logand a m) (to_int b land (w - 1))) m
  | Ashr -> logand (shift_right (sext sh a) (to_int b land (w - 1))) m

(* the predicate, on the operands' unsigned or signed order *)
let[@inline] cmp (op : Ir.cmpop) w m a b =
  let c =
    match op with
    | Slt | Sle | Sgt | Sge ->
        Int64.compare (sext (64 - w) a) (sext (64 - w) b)
    | Eq | Ne | Ult | Ule | Ugt | Uge ->
        Int64.unsigned_compare (Int64.logand a m) (Int64.logand b m)
  in
  match op with
  | Eq -> c = 0
  | Ne -> c <> 0
  | Ult | Slt -> c < 0
  | Ule | Sle -> c <= 0
  | Ugt | Sgt -> c > 0
  | Uge | Sge -> c >= 0

(* Misspeculation conditions of Table 1, at the IR level: the exact result
   [e] of a slice Add/Sub ([arith]) misspeculates when it is negative or
   does not fit the slice; the source [e] of a slice truncate when it does
   not fit.  [Width.fits] unfolded: below 64 bits, [e] fits iff
   0 <= e <= m; a negative value needs all 64. *)
let[@inline] misspec ~arith w m e =
  if Int64.compare e 0L < 0 then arith || w < 64
  else w < 64 && Int64.compare e m > 0

let eval_binop op w a b = binop op w (Width.mask w) a b

let eval_cmp op w a b = if cmp op w (Width.mask w) a b then 1L else 0L

let misspeculates (i : Ir.instr) operand_values _result =
  let w = i.width in
  let m = Width.mask w in
  match (i.op, operand_values) with
  | Ir.Bin (Ir.Add, _, _), [ a; b ] -> misspec ~arith:true w m (Int64.add a b)
  | Ir.Bin (Ir.Sub, _, _), [ a; b ] -> misspec ~arith:true w m (Int64.sub a b)
  | Ir.Cast (Ir.TruncCast, _), [ a ] -> misspec ~arith:false w m a
  | _ -> false

(* Everything about a function's body that doesn't depend on the dynamic
   state is computed once per execution and reused on every call and every
   block entry: the static frame layout, the block→region map, and each
   block's instruction list pre-split into its phi prefix and its body.
   The splits used to be two [List.filter]s per block *execution*, which
   dominated the profile on loop-heavy workloads. *)
type fctx = {
  fc_sallocs : (int * int) list;          (* (iid, bytes), frame order *)
  fc_frame : int;                          (* total frame size, 8-aligned *)
  fc_region : Ir.region option array;     (* bid-indexed block→region map *)
  fc_phis : Ir.instr list array;          (* bid-indexed phi prefix *)
  fc_body : Ir.instr list array;          (* bid-indexed non-phi body *)
  fc_srcw : int array;
      (* iid-indexed source-operand width for Cmp/Cast (-1 elsewhere) *)
  fc_block : Ir.block option array;       (* bid-indexed block table *)
}

let build_fctx (f : Ir.func) : fctx =
  let n = f.next_id in
  let fc_sallocs =
    List.concat_map
      (fun (b : Ir.block) ->
        List.filter_map
          (fun (i : Ir.instr) ->
            match i.op with Ir.Salloc n -> Some (i.iid, n) | _ -> None)
          b.instrs)
      f.blocks
  in
  let fc_frame =
    List.fold_left (fun acc (_, n) -> acc + ((n + 7) / 8 * 8)) 0 fc_sallocs
  in
  let fc_region = Array.make n None in
  List.iter
    (fun (r : Ir.region) ->
      List.iter (fun bid -> fc_region.(bid) <- Some r) r.rblocks)
    f.regions;
  let fc_phis = Array.make n [] in
  let fc_body = Array.make n [] in
  let fc_srcw = Array.make n (-1) in
  let fc_block = Array.make n None in
  List.iter
    (fun (b : Ir.block) ->
      fc_block.(b.bid) <- Some b;
      fc_phis.(b.bid) <- List.filter Ir.is_phi b.instrs;
      fc_body.(b.bid) <- List.filter (fun i -> not (Ir.is_phi i)) b.instrs;
      List.iter
        (fun (i : Ir.instr) ->
          match i.op with
          | Ir.Cmp (_, a, _) | Ir.Cast (_, a) ->
              fc_srcw.(i.iid) <- Ir.operand_width f a
          | _ -> ())
        b.instrs)
    f.blocks;
  { fc_sallocs; fc_frame; fc_region; fc_phis; fc_body; fc_srcw; fc_block }

(* --- tree-walking engine ----------------------------------------------- *)

let exec_tree (st : state) ~entry ~(args : int64 list) : int64 option =
  let m = st.m in
  let funcs = Hashtbl.create 16 in
  List.iter (fun (f : Ir.func) -> Hashtbl.replace funcs f.fname f) m.funcs;
  let get_func name =
    match Hashtbl.find_opt funcs name with
    | Some f -> f
    | None -> raise (Trap (Outcome.Unknown_function name))
  in
  let fctxs : (string, fctx) Hashtbl.t = Hashtbl.create 16 in
  let get_fctx (f : Ir.func) =
    match Hashtbl.find_opt fctxs f.fname with
    | Some c -> c
    | None ->
        let c = build_fctx f in
        Hashtbl.replace fctxs f.fname c;
        c
  in
  let depth = ref 0 in
  let rec exec_func (f : Ir.func) (args : int64 list) : int64 option =
    (* frameless recursion never trips the simulated-SP check, and OCaml 5
       grows the host fiber stack for gigabytes before Stack_overflow —
       bound the call depth explicitly so runaway recursion traps fast *)
    incr depth;
    if !depth > 100_000 then raise (Trap Outcome.Stack_overflow);
    st.ctr.calls <- st.ctr.calls + 1;
    (* the environment: iids are dense per function, so a flat value
       array plus presence bytes beats a hashtable — no hashing, no
       option or bucket allocation on the per-step read/write path *)
    let nids = f.next_id in
    let env = Array.make nids 0L in
    let set = Bytes.make nids '\000' in
    let env_set i v =
      Array.unsafe_set env i v;
      Bytes.unsafe_set set i '\001'
    in
    (* hoist the profiler's per-function cursor out of the step loop *)
    let prof =
      match st.opts.profile with
      | Some p -> Some (Profile.cursor p ~func:f.fname)
      | None -> None
    in
    (* bind parameters; a call assigns them, so the profiler records them
       like any other dynamic assignment (their bitwidth gates squeezing
       of compares and arithmetic against parameters) *)
    (try
       List.iter2
         (fun (i : Ir.instr) v ->
           let v = Width.trunc i.width v in
           env_set i.iid v;
           match prof with
           | Some c -> Profile.record_at c ~iid:i.iid ~width:i.width v
           | None -> ())
         f.param_instrs args
     with Invalid_argument _ ->
       malformed ("arity mismatch calling " ^ f.fname));
    (* allocate the static stack frame (layout precomputed in the fctx) *)
    let ctx = get_fctx f in
    let saved_sp = st.sp in
    st.sp <- st.sp - ctx.fc_frame;
    if st.sp < st.mem.Memimage.globals_end then
      raise (Trap Outcome.Stack_overflow);
    let salloc_addr = Hashtbl.create 4 in
    let cursor = ref st.sp in
    List.iter
      (fun (iid, n) ->
        Hashtbl.replace salloc_addr iid !cursor;
        cursor := !cursor + ((n + 7) / 8 * 8))
      ctx.fc_sallocs;
    let goto bid =
      if bid >= 0 && bid < nids then
        match Array.unsafe_get ctx.fc_block bid with
        | Some b -> b
        | None -> Ir.block f bid (* unknown target: fail as the IR does *)
      else Ir.block f bid
    in
    let value = function
      | Ir.Const c -> c.Ir.cval
      | Ir.Var v ->
          if v >= 0 && v < nids && Bytes.unsafe_get set v = '\001' then
            Array.unsafe_get env v
          else malformed (Printf.sprintf "read of unset %%%d in %s" v f.fname)
    in
    let record (i : Ir.instr) v =
      match prof with
      | Some c when i.width > 0 ->
          Profile.record_at c ~iid:i.iid ~width:i.width v
      | _ -> ()
    in
    let ret_val = ref None in
    let finished = ref false in
    let cur = ref (Ir.entry f) and prev = ref (-1) in
    while not !finished do
      let b = !cur in
      let phis = ctx.fc_phis.(b.Ir.bid) and body = ctx.fc_body.(b.Ir.bid) in
      (* Phase 1: evaluate all phis w.r.t. the incoming edge, then commit
         simultaneously. *)
      let phi_values =
        List.map
          (fun (i : Ir.instr) ->
            match i.op with
            | Ir.Phi incoming -> (
                match List.assoc_opt !prev incoming with
                | Some v -> (i, Width.trunc i.width (value v))
                | None ->
                    malformed
                      (Printf.sprintf "phi %%%d has no incoming for block %d"
                         i.iid !prev))
            | _ -> assert false)
          phis
      in
      List.iter
        (fun ((i : Ir.instr), v) ->
          st.ctr.steps <- st.ctr.steps + 1;
          env_set i.iid v;
          record i v)
        phi_values;
      (* Phase 2: straight-line execution with misspeculation checks. *)
      let rec run = function
        | [] -> ()
        | (i : Ir.instr) :: rest ->
            st.ctr.steps <- st.ctr.steps + 1;
            if st.ctr.steps > st.opts.fuel then raise Fuel_exhausted;
            let commit v =
              let v = Width.trunc i.width v in
              env_set i.iid v;
              record i v
            in
            (* only reached when [i.speculative] — the call sites guard,
               so the non-speculative path allocates no operand list *)
            let misspec_check ops result =
              if misspeculates i ops result then begin
                match ctx.fc_region.(b.bid) with
                | Some r ->
                    st.ctr.misspecs <- st.ctr.misspecs + 1;
                    let var =
                      if i.iname <> "" then i.iname
                      else Printf.sprintf "%%%d" i.iid
                    in
                    let key = (f.Ir.fname, var, i.line) in
                    (match Hashtbl.find_opt st.ctr.sites key with
                    | Some n -> Hashtbl.replace st.ctr.sites key (n + 1)
                    | None -> Hashtbl.add st.ctr.sites key 1);
                    prev := b.bid;
                    cur := goto r.rhandler;
                    true
                | None -> malformed "speculative instruction outside a region"
              end
              else false
            in
            (match i.op with
            | Ir.Param _ -> malformed "param instruction in block"
            | Ir.Bin (op, a, c) ->
                let va = value a and vc = value c in
                let r = eval_binop op i.width va vc in
                if i.speculative && misspec_check [ va; vc ] r then ()
                else begin
                  commit r;
                  run rest
                end
            | Ir.Cmp (op, a, c) ->
                let va = value a and vc = value c in
                let w = Array.unsafe_get ctx.fc_srcw i.iid in
                commit (eval_cmp op w va vc);
                run rest
            | Ir.Cast (op, a) ->
                let va = value a in
                let src_w = Array.unsafe_get ctx.fc_srcw i.iid in
                let r =
                  match op with
                  | Ir.Zext -> Width.zext src_w va
                  | Ir.Sext -> Width.trunc i.width (Width.sext src_w va)
                  | Ir.TruncCast -> Width.trunc i.width va
                in
                if i.speculative && misspec_check [ va ] r then ()
                else begin
                  commit r;
                  run rest
                end
            | Ir.Select (c, a, d) ->
                commit (if value c <> 0L then value a else value d);
                run rest
            | Ir.Phi _ -> malformed "phi after non-phi"
            | Ir.Load l ->
                let addr = Int64.to_int (value l.l_addr) in
                commit (Memimage.read st.mem ~width:i.width addr);
                run rest
            | Ir.Store s ->
                let addr = Int64.to_int (value s.s_addr) in
                Memimage.write st.mem ~width:s.s_width addr (value s.s_value);
                run rest
            | Ir.Gaddr g ->
                commit (Int64.of_int (Memimage.addr_of st.mem g));
                run rest
            | Ir.Salloc _ ->
                commit (Int64.of_int (Hashtbl.find salloc_addr i.iid));
                run rest
            | Ir.Call c ->
                let vargs = List.map value c.args in
                let r = exec_func (get_func c.callee) vargs in
                (match r with
                | Some v when i.width > 0 -> commit v
                | _ -> ());
                run rest
            | Ir.Br t ->
                prev := b.bid;
                cur := goto t
            | Ir.Cbr (c, t, e) ->
                prev := b.bid;
                cur := goto (if value c <> 0L then t else e)
            | Ir.Ret v ->
                ret_val := Option.map value v;
                finished := true
            | Ir.Unreachable -> malformed "reached unreachable");
            ()
      in
      run body
    done;
    st.sp <- saved_sp;
    decr depth;
    !ret_val
  in
  exec_func (get_func entry) args

(* --- closure-compiled engine ------------------------------------------- *)

(* The per-call frame threaded through every compiled closure: the dense
   environment and its presence bytes, the incoming-edge cursor for phi
   resolution, the frame base for Salloc addressing, the phi scratch for
   the two-phase commit, and the landing slot for Ret.

   The environment and scratch are int64 bigarrays, not [int64 array]s:
   a bigarray element is stored and loaded unboxed, so a committed value
   costs a plain 8-byte store.  With boxed storage every commit
   allocated, and — worse — boxes held by frames that stay live across a
   minor collection (deep recursion, large table state) were promoted,
   putting the major GC on the per-step path; call-heavy workloads spent
   more time collecting than executing.  Frames themselves are pooled
   per function (see [compile_func]) for the same reason. *)
module A1 = Bigarray.Array1

type i64arr = (int64, Bigarray.int64_elt, Bigarray.c_layout) A1.t

let make_i64arr n : i64arr =
  let a = A1.create Bigarray.Int64 Bigarray.C_layout n in
  A1.fill a 0L;
  a

type cframe = {
  f_env : i64arr;
  f_set : Bytes.t;
  mutable f_prev : int;
  mutable f_base : int;
  mutable f_ret : int64 option;
  f_scratch : i64arr;
}

(* Block closures return the next block id to execute; [ret_bid] means
   the frame's function returned (every real bid is non-negative). *)
let ret_bid = -1

let no_scratch : i64arr = make_i64arr 0

(* Operand access descriptor: a constant, an environment slot (validated
   at compile time, so the unsafe reads in [read] stay safe) with its
   unset-read trap message, or a statically out-of-range operand. *)
type acc =
  | Aconst of int64
  | Avar of int * string  (** env slot, unset-read trap message *)
  | Atrap of string  (** statically out-of-range operand *)

(* The three helpers every compiled closure is built from.  They are
   inlined, so an operand value is a local of the closure body from the
   environment load to the environment store and stays unboxed.  Routing
   a read through a [cframe -> int64] closure instead boxes the value at
   every boundary (four allocations per step in the first cut of this
   engine), and so does passing a [read] straight into [Int64.compare]:
   bind each read with [let] first. *)
let[@inline] read fr d =
  match d with
  | Aconst v -> v
  | Avar (x, msg) ->
      if Bytes.unsafe_get fr.f_set x = '\001' then A1.unsafe_get fr.f_env x
      else malformed msg
  | Atrap msg -> malformed msg

(* write an already truncated value to the environment, record it *)
let[@inline] commit fr iid record v =
  A1.unsafe_set fr.f_env iid v;
  Bytes.unsafe_set fr.f_set iid '\001';
  match record with Some r -> r v | None -> ()

(* charge one step against the fuel *)
let[@inline] tick (ctr : counters) fuel =
  let s = ctr.steps + 1 in
  ctr.steps <- s;
  if s > fuel then raise Fuel_exhausted

let exec_compiled (st : state) ~entry ~(args : int64 list) : int64 option =
  let m = st.m in
  let ctr = st.ctr in
  let fuel = st.opts.fuel in
  let mem = st.mem in
  let globals_end = mem.Memimage.globals_end in
  let funcs = Hashtbl.create 16 in
  List.iter (fun (f : Ir.func) -> Hashtbl.replace funcs f.fname f) m.funcs;
  let depth = ref 0 in
  (* compiled functions by name; compilation is lazy (first call), like
     the tree engine's fctx construction, so a function that is never
     called is never compiled — and compile-time failures (e.g. an empty
     function body) surface at the same point of execution *)
  let ctab : (string, int64 list -> int64 option) Hashtbl.t =
    Hashtbl.create 16
  in
  let rec get_compiled name : int64 list -> int64 option =
    match Hashtbl.find_opt ctab name with
    | Some g -> g
    | None -> (
        match Hashtbl.find_opt funcs name with
        | None -> raise (Trap (Outcome.Unknown_function name))
        | Some f ->
            let g = compile_func f in
            Hashtbl.replace ctab f.Ir.fname g;
            g)
  and compile_func (f : Ir.func) : int64 list -> int64 option =
    let ctx = build_fctx f in
    let nids = f.next_id in
    let prof =
      match st.opts.profile with
      | Some p -> Some (Profile.cursor p ~func:f.fname)
      | None -> None
    in
    (* profiling hooks: a baked slot when profiling is on, nothing
       otherwise.  Parameters record at any width, like the tree engine's
       bind; other instructions only when their width is recordable. *)
    let slot_of (i : Ir.instr) =
      match prof with
      | Some c -> Some (Profile.slot c ~iid:i.iid ~width:i.width)
      | None -> None
    in
    let record_of (i : Ir.instr) = if i.width > 0 then slot_of i else None in
    let acc_of (o : Ir.operand) : acc =
      match o with
      | Ir.Const c -> Aconst c.Ir.cval
      | Ir.Var v ->
          let msg = Printf.sprintf "read of unset %%%d in %s" v f.fname in
          if v >= 0 && v < nids then Avar (v, msg) else Atrap msg
    in
    (* static jump: a valid target becomes a constant, an invalid one
       fails at execution time exactly as the tree engine's goto does *)
    let jump_to t : cframe -> int =
      if t >= 0 && t < nids && ctx.fc_block.(t) <> None then fun _ -> t
      else fun _ ->
        ignore (Ir.block f t);
        assert false
    in
    (* misspeculation exit: counter bump, site attribution and handler
       redirect, all resolved at compile time *)
    let misspec_exit_of (b : Ir.block) (i : Ir.instr) : cframe -> int =
      match ctx.fc_region.(b.Ir.bid) with
      | None -> fun _ -> malformed "speculative instruction outside a region"
      | Some r ->
          let var =
            if i.iname <> "" then i.iname else Printf.sprintf "%%%d" i.iid
          in
          let key = (f.Ir.fname, var, i.line) in
          let jump = jump_to r.Ir.rhandler in
          let bid = b.Ir.bid in
          fun fr ->
            ctr.misspecs <- ctr.misspecs + 1;
            (match Hashtbl.find_opt ctr.sites key with
            | Some n -> Hashtbl.replace ctr.sites key (n + 1)
            | None -> Hashtbl.add ctr.sites key 1);
            fr.f_prev <- bid;
            jump fr
    in
    (* Salloc frame offsets (tree engine: per-call hashtable walk) *)
    let salloc_off = Hashtbl.create 4 in
    let () =
      let cur = ref 0 in
      List.iter
        (fun (iid, n) ->
          Hashtbl.replace salloc_off iid !cur;
          cur := !cur + ((n + 7) / 8 * 8))
        ctx.fc_sallocs
    in
    (* phi prefix, pre-resolved per incoming edge.  Phase 1 reads every
       phi's operand for the edge into the frame's scratch (traps — unset
       reads, missing edges — surface in phi order, before any commit);
       phase 2 commits simultaneously. *)
    let compile_phis (phis : Ir.instr list) : cframe -> unit =
      let phis = Array.of_list phis in
      let n = Array.length phis in
      let incoming_of (i : Ir.instr) =
        match i.Ir.op with Ir.Phi inc -> inc | _ -> assert false
      in
      let iids = Array.map (fun (i : Ir.instr) -> i.Ir.iid) phis in
      let masks = Array.map (fun (i : Ir.instr) -> Width.mask i.width) phis in
      let recs = Array.map record_of phis in
      let no_edge_msg (i : Ir.instr) p =
        Printf.sprintf "phi %%%d has no incoming for block %d" i.Ir.iid p
      in
      (* every predecessor edge any phi knows about gets a plan *)
      let preds =
        let acc = ref [] in
        Array.iter
          (fun i ->
            List.iter
              (fun (p, _) -> if not (List.mem p !acc) then acc := p :: !acc)
              (incoming_of i))
          phis;
        Array.of_list (List.rev !acc)
      in
      let plan_for p : cframe -> unit =
        (* accesses for the phi prefix in order, stopping at the first
           phi with no entry for this edge (reads before it still run,
           so their traps keep priority, as in the tree engine) *)
        let rec accesses k acc =
          if k = n then `Complete (Array.of_list (List.rev acc))
          else
            let i = phis.(k) in
            match List.assoc_opt p (incoming_of i) with
            | None -> `Missing (Array.of_list (List.rev acc), no_edge_msg i p)
            | Some o -> accesses (k + 1) (acc_of o :: acc)
        in
        match accesses 0 [] with
        | `Missing (accs, msg) ->
            fun fr ->
              Array.iter (fun d -> ignore (read fr d)) accs;
              malformed msg
        | `Complete accs ->
            fun fr ->
              let sc = fr.f_scratch in
              for k = 0 to n - 1 do
                let v = read fr (Array.unsafe_get accs k) in
                A1.unsafe_set sc k (Int64.logand v (Array.unsafe_get masks k))
              done;
              ctr.steps <- ctr.steps + n;
              for k = 0 to n - 1 do
                commit fr (Array.unsafe_get iids k) (Array.unsafe_get recs k)
                  (A1.unsafe_get sc k)
              done
      in
      let plans = Array.map plan_for preds in
      let nplans = Array.length preds in
      fun fr ->
        (* a loop over a local ref, not a local recursive function, which
           would allocate a closure at every block entry *)
        let p = fr.f_prev in
        let k = ref 0 in
        while !k < nplans && Array.unsafe_get preds !k <> p do incr k done;
        if !k < nplans then (Array.unsafe_get plans !k) fr
        else
          (* an edge no phi lists: the tree engine's phase 1 fails on the
             first phi, naming the dynamic predecessor *)
          malformed (no_edge_msg phis.(0) p)
    in
    (* the fused body: one closure per instruction, each tail-calling its
       continuation; terminators return the next block id instead *)
    let rec comp_body (b : Ir.block) (is : Ir.instr list) : cframe -> int =
      match is with
      | [] ->
          (* a block without a terminator re-enters itself with the same
             incoming edge, exactly like the tree engine's outer loop *)
          let bid = b.Ir.bid in
          fun _ -> bid
      | i :: rest -> comp_instr b i (comp_body b rest)
    and comp_instr (b : Ir.block) (i : Ir.instr) (k : cframe -> int) :
        cframe -> int =
      let iid = i.iid and w = i.width in
      let m = Width.mask w and record = record_of i in
      match i.Ir.op with
      | Ir.Param _ ->
          fun _ ->
            tick ctr fuel;
            malformed "param instruction in block"
      | Ir.Phi _ ->
          (* unreachable: the body excludes the phi prefix *)
          fun _ ->
            tick ctr fuel;
            malformed "phi after non-phi"
      | Ir.Bin (((Ir.Add | Ir.Sub) as op), a, c) when i.speculative ->
          let da = acc_of a and dc = acc_of c in
          let exit_ = misspec_exit_of b i in
          let sub = op = Ir.Sub in
          fun fr ->
            tick ctr fuel;
            let va = read fr da in
            let vc = read fr dc in
            let e = if sub then Int64.sub va vc else Int64.add va vc in
            if misspec ~arith:true w m e then exit_ fr
            else begin
              commit fr iid record (Int64.logand e m);
              k fr
            end
      | Ir.Bin (op, a, c) ->
          let da = acc_of a and dc = acc_of c in
          fun fr ->
            tick ctr fuel;
            let va = read fr da in
            let vc = read fr dc in
            commit fr iid record (binop op w m va vc);
            k fr
      | Ir.Cmp (op, a, c) ->
          let sw = ctx.fc_srcw.(iid) in
          let sm = Width.mask sw and one = Int64.logand 1L m in
          let da = acc_of a and dc = acc_of c in
          fun fr ->
            tick ctr fuel;
            let va = read fr da in
            let vc = read fr dc in
            commit fr iid record (if cmp op sw sm va vc then one else 0L);
            k fr
      | Ir.Cast (Ir.TruncCast, a) when i.speculative ->
          let da = acc_of a in
          let exit_ = misspec_exit_of b i in
          fun fr ->
            tick ctr fuel;
            let va = read fr da in
            if misspec ~arith:false w m va then exit_ fr
            else begin
              commit fr iid record (Int64.logand va m);
              k fr
            end
      | Ir.Cast (op, a) ->
          (* every cast, truncated to [w], is one shift pair and one mask:
             sext moves the source's sign bit to the top and back, zext
             masks to the narrower of the two widths.  A per-step [match
             op] over [Width]'s functions instead boxes the operand. *)
          let sw = ctx.fc_srcw.(iid) in
          let sh = match op with Ir.Sext -> 64 - sw | _ -> 0 in
          let cm =
            match op with Ir.Zext -> Int64.logand (Width.mask sw) m | _ -> m
          in
          let da = acc_of a in
          fun fr ->
            tick ctr fuel;
            let va = read fr da in
            commit fr iid record (Int64.logand (sext sh va) cm);
            k fr
      | Ir.Select (c, a, d) ->
          let dc = acc_of c and da = acc_of a and dd = acc_of d in
          fun fr ->
            tick ctr fuel;
            let vc = read fr dc in
            (* only the taken arm is read (and traps), as in the tree
               engine *)
            let v = read fr (if Int64.compare vc 0L <> 0 then da else dd) in
            commit fr iid record (Int64.logand v m);
            k fr
      | Ir.Load l ->
          let da = acc_of l.Ir.l_addr in
          fun fr ->
            tick ctr fuel;
            let va = read fr da in
            let v = Memimage.read mem ~width:w (Int64.to_int va) in
            commit fr iid record (Int64.logand v m);
            k fr
      | Ir.Store s ->
          let sw = s.Ir.s_width in
          let da = acc_of s.Ir.s_addr and dv = acc_of s.Ir.s_value in
          fun fr ->
            tick ctr fuel;
            let va = read fr da in
            let vv = read fr dv in
            Memimage.write mem ~width:sw (Int64.to_int va) vv;
            k fr
      | Ir.Gaddr g ->
          fun fr ->
            tick ctr fuel;
            let v = Int64.of_int (Memimage.addr_of mem g) in
            commit fr iid record (Int64.logand v m);
            k fr
      | Ir.Salloc _ ->
          let off = Hashtbl.find salloc_off iid in
          fun fr ->
            tick ctr fuel;
            let v = Int64.of_int (fr.f_base + off) in
            commit fr iid record (Int64.logand v m);
            k fr
      | Ir.Call c ->
          let dargs = List.map acc_of c.Ir.args in
          let callee = c.Ir.callee in
          let target = ref None in
          fun fr ->
            tick ctr fuel;
            (* arguments left to right, then callee resolution — the
               tree engine's order (unknown callees trap after the
               arguments are read) *)
            let vargs = List.map (fun d -> read fr d) dargs in
            let g =
              match !target with
              | Some g -> g
              | None ->
                  let g = get_compiled callee in
                  target := Some g;
                  g
            in
            (match g vargs with
            | Some v when w > 0 -> commit fr iid record (Int64.logand v m)
            | _ -> ());
            k fr
      | Ir.Br t ->
          let j = jump_to t and bid = b.Ir.bid in
          fun fr ->
            tick ctr fuel;
            fr.f_prev <- bid;
            j fr
      | Ir.Cbr (c, t, e) ->
          let dc = acc_of c in
          let jt = jump_to t and je = jump_to e in
          let bid = b.Ir.bid in
          fun fr ->
            tick ctr fuel;
            (* prev is set before the condition is read, as in the tree
               engine *)
            fr.f_prev <- bid;
            let vc = read fr dc in
            if Int64.compare vc 0L <> 0 then jt fr else je fr
      | Ir.Ret None ->
          fun fr ->
            tick ctr fuel;
            fr.f_ret <- None;
            ret_bid
      | Ir.Ret (Some o) ->
          (* the returned value is not truncated, as in the tree engine *)
          let d = acc_of o in
          fun fr ->
            tick ctr fuel;
            let v = read fr d in
            fr.f_ret <- Some v;
            ret_bid
      | Ir.Unreachable ->
          fun _ ->
            tick ctr fuel;
            malformed "reached unreachable"
    in
    let bcode : (cframe -> int) array =
      Array.make (max nids 1) (fun _ -> assert false)
    in
    let max_phis = ref 0 in
    List.iter
      (fun (b : Ir.block) ->
        let body = comp_body b ctx.fc_body.(b.Ir.bid) in
        let code =
          match ctx.fc_phis.(b.Ir.bid) with
          | [] -> body
          | phis ->
              max_phis := max !max_phis (List.length phis);
              let ph = compile_phis phis in
              fun fr ->
                ph fr;
                body fr
        in
        bcode.(b.Ir.bid) <- code)
      f.blocks;
    let max_phis = !max_phis in
    (* parameter binding, mirroring List.iter2: the common prefix binds
       (and records) before an arity mismatch traps *)
    let params = Array.of_list f.param_instrs in
    let pmasks = Array.map (fun (i : Ir.instr) -> Width.mask i.width) params in
    let pslots = Array.map slot_of params in
    let nparams = Array.length params in
    let arity_msg = "arity mismatch calling " ^ f.fname in
    let rec bind fr j = function
      | [] -> if j < nparams then malformed arity_msg
      | v :: rest ->
          if j >= nparams then malformed arity_msg;
          commit fr (Array.unsafe_get params j).Ir.iid
            (Array.unsafe_get pslots j)
            (Int64.logand v (Array.unsafe_get pmasks j));
          bind fr (j + 1) rest
    in
    let frame = ctx.fc_frame in
    let entry_bid = (Ir.entry f).Ir.bid in
    (* Frame pool (LIFO, matching call nesting): a returning call parks
       its frame here and the next call to this function reuses it after
       scrubbing the presence bytes — every compiled read checks those
       before touching the environment, so stale slot values are
       unobservable.  Frames abandoned by an unwinding exception are
       simply not returned; the pool re-allocates on demand. *)
    let pool : cframe list ref = ref [] in
    fun (args : int64 list) ->
      incr depth;
      if !depth > 100_000 then raise (Trap Outcome.Stack_overflow);
      ctr.calls <- ctr.calls + 1;
      let fr =
        match !pool with
        | fr :: rest ->
            pool := rest;
            Bytes.fill fr.f_set 0 nids '\000';
            fr.f_prev <- -1;
            fr.f_ret <- None;
            fr
        | [] ->
            { f_env = make_i64arr nids;
              f_set = Bytes.make nids '\000';
              f_prev = -1;
              f_base = 0;
              f_ret = None;
              f_scratch =
                (if max_phis = 0 then no_scratch else make_i64arr max_phis) }
      in
      bind fr 0 args;
      let saved_sp = st.sp in
      st.sp <- st.sp - frame;
      if st.sp < globals_end then raise (Trap Outcome.Stack_overflow);
      fr.f_base <- st.sp;
      let bid = ref entry_bid in
      while !bid >= 0 do
        bid := (Array.unsafe_get bcode !bid) fr
      done;
      st.sp <- saved_sp;
      decr depth;
      let r = fr.f_ret in
      pool := fr :: !pool;
      r
  in
  (get_compiled entry) args

(* --- shared entry point ------------------------------------------------ *)

(* A trapped result carries the trap and no activity, so it is the
   same record under either engine. *)
let exec ?(opts = default_opts) (m : Ir.modul) ~entry ~(args : int64 list) mem
    =
  let st =
    { m; mem; opts;
      ctr = { steps = 0; misspecs = 0; calls = 0; sites = Hashtbl.create 16 };
      sp = Memimage.size mem }
  in
  let ended ret outcome =
    { ret; steps = st.ctr.steps; misspecs = st.ctr.misspecs;
      calls = st.ctr.calls; outcome;
      misspec_sites =
        List.sort compare
          (Hashtbl.fold (fun k n acc -> (k, n) :: acc) st.ctr.sites []) }
  in
  let trapped t =
    { ret = None; steps = 0; misspecs = 0; calls = 0;
      outcome = Outcome.Trapped t; misspec_sites = [] }
  in
  match
    if Ir.find_func m entry = None then
      raise (Trap (Outcome.Unknown_entry entry));
    match opts.engine with
    | Tree -> exec_tree st ~entry ~args
    | Compiled -> exec_compiled st ~entry ~args
  with
  | r -> ended r Outcome.Finished
  | exception Fuel_exhausted -> ended None Outcome.Out_of_fuel
  | exception Trap t -> trapped t
  | exception Memimage.Fault msg -> trapped (Outcome.Memory_fault msg)
  | exception Stack_overflow ->
      (* unbounded simulated recursion without stack frames exhausts the
         host stack instead of the simulated one; report it uniformly *)
      trapped Outcome.Stack_overflow

(** [run_fresh m ~entry ~args] builds a fresh memory image for [m],
    optionally letting [setup] fill workload inputs, and executes. *)
let run_fresh ?(opts = default_opts) ?setup ?mem_size (m : Ir.modul) ~entry ~args =
  let mem = Memimage.create ?size:mem_size m in
  (match setup with Some f -> f mem | None -> ());
  (exec ~opts m ~entry ~args mem, mem)
