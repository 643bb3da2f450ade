(* Speculative IR ("SIR", paper §3.1): an LLVM-like SSA intermediate
   representation extended with speculative regions.

   Every instruction that produces a value defines exactly one SSA variable,
   identified by the instruction's [iid].  Operands reference defining
   instructions by id, so the IR is a mutable graph keyed by integer ids,
   with per-function lookup tables.  Blocks hold their instructions in
   order, terminator last. *)

(** Binary integer operations. Signedness is encoded in the operation, not
    the type, exactly as in LLVM. *)
type binop =
  | Add | Sub | Mul | Udiv | Sdiv | Urem | Srem
  | And | Or | Xor | Shl | Lshr | Ashr

(** Integer comparison predicates. *)
type cmpop = Eq | Ne | Ult | Ule | Ugt | Uge | Slt | Sle | Sgt | Sge

(** Width conversions. The destination width is the instruction's width. *)
type castop = Zext | Sext | TruncCast

(** A typed integer literal: the payload is kept truncated to [cwidth]. *)
type const = { cval : int64; cwidth : int }

(** An operand is either the SSA variable defined by instruction [iid], or
    a constant. *)
type operand = Var of int | Const of const

type load_info = { l_addr : operand; l_volatile : bool }
type store_info = { s_addr : operand; s_value : operand; s_width : int; s_volatile : bool }
type call_info = { callee : string; args : operand list }

(** Instruction payloads.  [Load] reads the instruction's width from
    memory; [Store] writes [s_width] bits.  [Gaddr] yields the address of a
    module global; [Salloc n] reserves [n] bytes of function-local stack
    and yields its address.  [Param k] is the pseudo-definition of the
    k-th function parameter. *)
type op =
  | Param of int
  | Bin of binop * operand * operand
  | Cmp of cmpop * operand * operand
  | Cast of castop * operand
  | Select of operand * operand * operand
  | Phi of (int * operand) list        (* (predecessor block id, value) *)
  | Load of load_info
  | Store of store_info
  | Gaddr of string
  | Salloc of int
  | Call of call_info
  | Br of int
  | Cbr of operand * int * int
  | Ret of operand option
  | Unreachable

type instr = {
  iid : int;
  mutable op : op;
  mutable width : int;          (* result width in bits; 0 = no result *)
  mutable speculative : bool;   (* set by the squeezer (§3.2.3 pass 2) *)
  mutable iname : string;       (* printing hint only *)
  mutable line : int;           (* source line; 0 = unknown/synthetic *)
}

type block = {
  bid : int;
  mutable bname : string;
  mutable instrs : instr list;  (* non-empty once built; terminator last *)
}

(** A speculative region (§3.1.1): a single-entry single-exit sequence of
    blocks with a unique misspeculation handler. *)
type region = {
  rid : int;
  mutable rblocks : int list;
  mutable rhandler : int;
}

type func = {
  fname : string;
  params : (string * int) list;
  ret_width : int;                       (* 0 = void *)
  param_instrs : instr list;             (* Param pseudo-definitions *)
  mutable blocks : block list;           (* entry first; layout order *)
  mutable regions : region list;
  itbl : (int, instr) Hashtbl.t;
  btbl : (int, block) Hashtbl.t;
  mutable next_id : int;
}

(** A module global: a flat array of [count] elements of [elem_width] bits.
    Scalars are arrays of length one. *)
type global = {
  gname : string;
  elem_width : int;
  count : int;
  mutable ginit : int64 array;  (* [||] means zero-initialised *)
}

type modul = {
  mutable funcs : func list;
  mutable globals : global list;
}

(** Hash tables keyed by ids, hashed by value: no call into the generic
    hash or compare per lookup. *)
module IntTbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash (x : int) = x land max_int
end)

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let fresh_id f =
  let id = f.next_id in
  f.next_id <- id + 1;
  id

let create_func ~name ~params ~ret_width =
  let f =
    { fname = name; params; ret_width; param_instrs = [];
      blocks = []; regions = []; itbl = Hashtbl.create 64;
      btbl = Hashtbl.create 16; next_id = 0 }
  in
  let param_instrs =
    List.mapi
      (fun k (pname, w) ->
        let i = { iid = fresh_id f; op = Param k; width = w;
                  speculative = false; iname = pname; line = 0 } in
        Hashtbl.replace f.itbl i.iid i;
        i)
      params
  in
  { f with param_instrs }

(** [new_block f name] creates a block registered in [f] but not yet
    placed in its layout.  A pass that creates many blocks places them
    with one append ([f.blocks <- f.blocks @ created]) rather than one
    {!add_block} each, whose append copies the whole layout. *)
let new_block f name =
  let b = { bid = fresh_id f; bname = name; instrs = [] } in
  Hashtbl.replace f.btbl b.bid b;
  b

let add_block f name =
  let b = new_block f name in
  f.blocks <- f.blocks @ [ b ];
  b

(** [insert_block_after f anchor name] creates a block placed directly
    after [anchor] in layout order. *)
let insert_block_after f anchor name =
  let b = { bid = fresh_id f; bname = name; instrs = [] } in
  Hashtbl.replace f.btbl b.bid b;
  let rec place = function
    | [] -> [ b ]
    | x :: rest when x.bid = anchor.bid -> x :: b :: rest
    | x :: rest -> x :: place rest
  in
  f.blocks <- place f.blocks;
  b

let mk_instr f ?(name = "") ?(line = 0) ~width op =
  let i =
    { iid = fresh_id f; op; width; speculative = false; iname = name; line }
  in
  Hashtbl.replace f.itbl i.iid i;
  i

(** [append_instr b i] places [i] last in [b].  It copies the block's
    list, so code that fills a block instruction by instruction builds
    the list itself (as {!Builder} and the squeezer's handlers do). *)
let append_instr b i = b.instrs <- b.instrs @ [ i ]

let prepend_instr b i = b.instrs <- i :: b.instrs

let instr f iid =
  match Hashtbl.find_opt f.itbl iid with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Ir.instr: unknown id %%%d in %s" iid f.fname)

let block f bid =
  match Hashtbl.find_opt f.btbl bid with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "Ir.block: unknown block %d in %s" bid f.fname)

let entry f =
  match f.blocks with
  | b :: _ -> b
  | [] -> invalid_arg ("Ir.entry: empty function " ^ f.fname)

let find_func m name = List.find_opt (fun f -> f.fname = name) m.funcs

let find_global m name = List.find_opt (fun g -> g.gname = name) m.globals

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

let is_terminator i =
  match i.op with Br _ | Cbr _ | Ret _ | Unreachable -> true | _ -> false

let terminator b =
  let rec last = function
    | [ t ] when is_terminator t -> t
    | [] | [ _ ] ->
        invalid_arg (Printf.sprintf "Ir.terminator: block %s lacks one" b.bname)
    | _ :: rest -> last rest
  in
  last b.instrs

let body_instrs b =
  List.filter (fun i -> not (is_terminator i)) b.instrs

let is_phi i = match i.op with Phi _ -> true | _ -> false

(** [insert_phi b i] places the phi [i] after [b]'s phis, ahead of every
    other instruction; only the phi prefix is copied. *)
let insert_phi b i =
  let rec place = function
    | p :: rest when is_phi p -> p :: place rest
    | rest -> i :: rest
  in
  b.instrs <- place b.instrs

let has_result i = i.width > 0

let succs b =
  match (terminator b).op with
  | Br t -> [ t ]
  | Cbr (_, t, e) -> if t = e then [ t ] else [ t; e ]
  | Ret _ | Unreachable -> []
  | _ -> []

(** Operand list of an instruction, in evaluation order. *)
let operands i =
  match i.op with
  | Param _ | Gaddr _ | Salloc _ | Br _ | Unreachable -> []
  | Bin (_, a, b) | Cmp (_, a, b) -> [ a; b ]
  | Cast (_, a) -> [ a ]
  | Select (c, a, b) -> [ c; a; b ]
  | Phi incoming -> List.map snd incoming
  | Load l -> [ l.l_addr ]
  | Store s -> [ s.s_addr; s.s_value ]
  | Call c -> c.args
  | Cbr (c, _, _) -> [ c ]
  | Ret (Some v) -> [ v ]
  | Ret None -> []

(** [iter_operands fn i] applies [fn] to each operand of [i] in
    {!operands}' order, without building the list. *)
let iter_operands fn i =
  match i.op with
  | Param _ | Gaddr _ | Salloc _ | Br _ | Unreachable | Ret None -> ()
  | Bin (_, a, b) | Cmp (_, a, b) -> fn a; fn b
  | Cast (_, a) | Cbr (a, _, _) | Ret (Some a) -> fn a
  | Select (c, a, b) -> fn c; fn a; fn b
  | Phi incoming -> List.iter (fun (_, v) -> fn v) incoming
  | Load l -> fn l.l_addr
  | Store s -> fn s.s_addr; fn s.s_value
  | Call c -> List.iter fn c.args

(** [map_operands fn i] rewrites each operand of [i] through [fn],
    mutating the instruction in place. *)
let map_operands fn i =
  let g = fn in
  i.op <-
    (match i.op with
    | Param _ | Gaddr _ | Salloc _ | Br _ | Unreachable -> i.op
    | Bin (o, a, b) -> Bin (o, g a, g b)
    | Cmp (o, a, b) -> Cmp (o, g a, g b)
    | Cast (o, a) -> Cast (o, g a)
    | Select (c, a, b) -> Select (g c, g a, g b)
    | Phi incoming -> Phi (List.map (fun (p, v) -> (p, g v)) incoming)
    | Load l -> Load { l with l_addr = g l.l_addr }
    | Store s -> Store { s with s_addr = g s.s_addr; s_value = g s.s_value }
    | Call c -> Call { c with args = List.map g c.args }
    | Cbr (c, t, e) -> Cbr (g c, t, e)
    | Ret (Some v) -> Ret (Some (g v))
    | Ret None -> Ret None)

(** [map_block_targets fn i] rewrites the block ids mentioned by [i]
    (branch targets and phi incoming edges) through [fn]. *)
let map_block_targets fn i =
  i.op <-
    (match i.op with
    | Br t -> Br (fn t)
    | Cbr (c, t, e) -> Cbr (c, fn t, fn e)
    | Phi incoming -> Phi (List.map (fun (p, v) -> (fn p, v)) incoming)
    | other -> other)

(** Plain CFG predecessor map: block id -> predecessor block ids. *)
let preds_map f =
  let tbl = Hashtbl.create 16 in
  List.iter (fun b -> Hashtbl.replace tbl b.bid []) f.blocks;
  List.iter
    (fun b ->
      List.iter
        (fun s ->
          let cur = try Hashtbl.find tbl s with Not_found -> [] in
          if not (List.mem b.bid cur) then Hashtbl.replace tbl s (b.bid :: cur))
        (succs b))
    f.blocks;
  tbl

let preds f bid =
  match Hashtbl.find_opt (preds_map f) bid with Some l -> l | None -> []

(* ------------------------------------------------------------------ *)
(* Speculative regions                                                 *)
(* ------------------------------------------------------------------ *)

(** [new_region f ~blocks ~handler] creates a region without adding it to
    [f.regions]; like {!new_block}, for passes that add many. *)
let new_region f ~blocks ~handler =
  { rid = fresh_id f; rblocks = blocks; rhandler = handler }

let add_region f ~blocks ~handler =
  let r = new_region f ~blocks ~handler in
  f.regions <- f.regions @ [ r ];
  r

let region_of_block f bid =
  List.find_opt (fun r -> List.mem bid r.rblocks) f.regions

(** [region_table f] maps each block listed by some region to the first
    region listing it, the answer {!region_of_block} gives, for passes
    that ask about every block. *)
let region_table f =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun r ->
      List.iter
        (fun bid -> if not (Hashtbl.mem tbl bid) then Hashtbl.replace tbl bid r)
        r.rblocks)
    f.regions;
  tbl

let region_entry r =
  match r.rblocks with
  | b :: _ -> b
  | [] -> invalid_arg "Ir.region_entry: empty region"

let is_handler f bid = List.exists (fun r -> r.rhandler = bid) f.regions

let handler_region f bid = List.find_opt (fun r -> r.rhandler = bid) f.regions

(** SIR predecessor relation (§3.1.2, equation 1): the predecessors of a
    handler are the predecessors of its region's entry block; all other
    blocks use the plain CFG relation. *)
let preds_sir f =
  let base = preds_map f in
  let tbl = Hashtbl.copy base in
  List.iter
    (fun r ->
      let entry_preds =
        match Hashtbl.find_opt base (region_entry r) with
        | Some (_ :: _ as l) -> l
        | _ ->
            (* the region entry is the function entry (or has no explicit
               predecessors): the handler still executes strictly after it,
               so for dominance purposes the entry itself stands in *)
            [ region_entry r ]
      in
      Hashtbl.replace tbl r.rhandler entry_preds)
    f.regions;
  tbl

(** SMIR predecessor relation (§3.1.3, equation 2): every block of a region
    is a predecessor of the region's handler, modelling misspeculation
    control flow. *)
let preds_smir f =
  let tbl = Hashtbl.copy (preds_map f) in
  List.iter
    (fun r -> Hashtbl.replace tbl r.rhandler r.rblocks)
    f.regions;
  tbl

(* ------------------------------------------------------------------ *)
(* Use lists and rewriting                                             *)
(* ------------------------------------------------------------------ *)

(** [uses f] builds a map from defining instruction id to the list of
    instructions that read it (including phis and terminators). *)
let uses f =
  let tbl = Hashtbl.create 64 in
  let record user = function
    | Var v ->
        let cur = try Hashtbl.find tbl v with Not_found -> [] in
        Hashtbl.replace tbl v (user :: cur)
    | Const _ -> ()
  in
  List.iter
    (fun b -> List.iter (fun i -> iter_operands (record i) i) b.instrs)
    f.blocks;
  tbl

(** [replace_all_uses f ~old_id ~by] substitutes operand [Var old_id] with
    [by] everywhere in [f]. *)
let replace_all_uses f ~old_id ~by =
  let sub o = match o with Var v when v = old_id -> by | _ -> o in
  List.iter
    (fun b -> List.iter (map_operands sub) b.instrs)
    f.blocks

(** [remove_instr f b i] deletes [i] from [b].  The caller must ensure the
    instruction has no remaining uses. *)
let remove_instr _f b i =
  b.instrs <- List.filter (fun j -> j.iid <> i.iid) b.instrs

(* ------------------------------------------------------------------ *)
(* Cloning                                                             *)
(* ------------------------------------------------------------------ *)

(** Result of {!clone_blocks}: id translation maps from originals to
    clones. *)
type clone_maps = {
  cm_block : (int, int) Hashtbl.t;  (* original bid -> clone bid *)
  cm_instr : (int, int) Hashtbl.t;  (* original iid -> clone iid *)
}

(** [clone_blocks f bs ~suffix] deep-copies the blocks [bs] into [f],
    appending them to the layout.  Operand references and block targets
    that point inside the cloned set are redirected to the clones;
    references to definitions or blocks outside the set are left pointing
    at the originals.  Returns the translation maps (the paper's
    [Spec]/[Orig] correspondence is [cm_block]/[cm_instr] and its
    inverse). *)
let clone_blocks f bs ~suffix =
  let cm = { cm_block = Hashtbl.create 16; cm_instr = Hashtbl.create 64 } in
  let clones =
    List.map
      (fun b ->
        let nb = { bid = fresh_id f; bname = b.bname ^ suffix; instrs = [] } in
        Hashtbl.replace f.btbl nb.bid nb;
        Hashtbl.replace cm.cm_block b.bid nb.bid;
        (b, nb))
      bs
  in
  (* First pass: clone instructions, establishing the id map. *)
  List.iter
    (fun (b, nb) ->
      nb.instrs <-
        List.map
          (fun i ->
            let ni =
              { iid = fresh_id f; op = i.op; width = i.width;
                speculative = i.speculative; line = i.line;
                iname = (if i.iname = "" then "" else i.iname ^ suffix) }
            in
            Hashtbl.replace f.itbl ni.iid ni;
            Hashtbl.replace cm.cm_instr i.iid ni.iid;
            ni)
          b.instrs)
    clones;
  (* Second pass: redirect operands and block targets into the clone set. *)
  let sub_operand = function
    | Var v as o ->
        (match Hashtbl.find_opt cm.cm_instr v with
        | Some v' -> Var v'
        | None -> o)
    | Const _ as o -> o
  in
  let sub_block t =
    match Hashtbl.find_opt cm.cm_block t with Some t' -> t' | None -> t
  in
  List.iter
    (fun (_, nb) ->
      List.iter
        (fun i ->
          map_operands sub_operand i;
          map_block_targets sub_block i)
        nb.instrs)
    clones;
  f.blocks <- f.blocks @ List.map snd clones;
  (cm, List.map snd clones)

(** [split_block f b ~at] splits [b] before instruction index [at]
    (counting all instructions): the first [at] instructions stay in [b],
    the rest move to a fresh successor block, [b] branches to it, and phis
    in the moved terminator's targets are retargeted.  Returns the new
    block. *)
let split_block f (b : block) ~at =
  let rec take n = function
    | rest when n = 0 -> ([], rest)
    | [] -> ([], [])
    | x :: rest ->
        let a, b = take (n - 1) rest in
        (x :: a, b)
  in
  let before, after = take at b.instrs in
  let nb = insert_block_after f b (b.bname ^ ".s") in
  nb.instrs <- after;
  b.instrs <- before;
  (* successors of the moved terminator now flow from nb *)
  List.iter
    (fun succ ->
      List.iter
        (fun (i : instr) ->
          match i.op with
          | Phi incoming ->
              i.op <-
                Phi
                  (List.map
                     (fun (p, v) -> ((if p = b.bid then nb.bid else p), v))
                     incoming)
          | _ -> ())
        (block f succ).instrs)
    (succs nb);
  append_instr b (mk_instr f ~width:0 (Br nb.bid));
  nb

(* ------------------------------------------------------------------ *)
(* Constant helpers                                                    *)
(* ------------------------------------------------------------------ *)

let const ~width v = Const { cval = Width.trunc width v; cwidth = width }

let operand_width f = function
  | Var v -> (instr f v).width
  | Const c -> c.cwidth

(** Reverse-postorder traversal of the reachable CFG (plain edges plus the
    handler edges so handlers are visited). *)
let reverse_postorder f =
  let visited = Hashtbl.create 16 in
  let order = ref [] in
  let region_at = region_table f in
  let rec dfs bid =
    if not (Hashtbl.mem visited bid) then begin
      Hashtbl.replace visited bid ();
      let b = block f bid in
      let extra =
        match Hashtbl.find_opt region_at bid with
        | Some r when region_entry r = bid -> [ r.rhandler ]
        | _ -> []
      in
      List.iter dfs (succs b @ extra);
      order := bid :: !order
    end
  in
  (match f.blocks with [] -> () | b :: _ -> dfs b.bid);
  !order
