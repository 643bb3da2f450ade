open Bs_ir

(* CFG preparation — pass ① of the squeezer (§3.2.3).

   Blocks are split so that:
   - equation (4): a block contains only loads or only stores, never both
     (removing intra-block WAR hazards so re-execution is safe);
   - equation (5): volatile accesses and calls sit alone in their block,
     making Idempotent? a per-block query;
   - equation (6): a block contains either only phis or no phis. *)

let is_load (i : Ir.instr) = match i.op with Ir.Load _ -> true | _ -> false
let is_store (i : Ir.instr) = match i.op with Ir.Store _ -> true | _ -> false

let is_volatile_or_call (i : Ir.instr) =
  match i.op with
  | Ir.Call _ -> true
  | Ir.Load l -> l.l_volatile
  | Ir.Store s -> s.s_volatile
  | _ -> false

(* Index (counting from 0 over all instructions of [b]) at which [b] must
   be split, or None. *)
let split_point (b : Ir.block) =
  let body = Ir.body_instrs b in
  let n = List.length body in
  let rec scan idx ~seen_load ~seen_store ~seen_nonphi = function
    | [] -> None
    | (i : Ir.instr) :: rest ->
        (* eq (6): a phi after a non-phi cannot happen in valid IR; a
           non-phi after phis splits the block so phis stand alone. *)
        if (not (Ir.is_phi i)) && (not seen_nonphi) && idx > 0 then Some idx
        else if is_volatile_or_call i then
          if idx > 0 then Some idx
          else if n > 1 then Some 1
          else None
        else if is_load i && seen_store then Some idx
        else if is_store i && seen_load then Some idx
        else
          scan (idx + 1)
            ~seen_load:(seen_load || is_load i)
            ~seen_store:(seen_store || is_store i)
            ~seen_nonphi:(seen_nonphi || not (Ir.is_phi i))
            rest
  in
  (* track whether the block starts with phis *)
  match body with
  | [] -> None
  | first :: _ ->
      if Ir.is_phi first then
        (* split right after the phi prefix if anything follows *)
        let phis = List.length (List.filter Ir.is_phi body) in
        if phis < n then Some phis else None
      else scan 0 ~seen_load:false ~seen_store:false ~seen_nonphi:true body

(* Splits always go to the first block in layout order that needs one.
   A split only moves instructions into the new block, placed right after
   the one split, and retargets phi edges (which [split_point] ignores), so
   the blocks before it never need a split again: one walk down the layout,
   splitting each block until it is clean, makes the same splits in the
   same order as rescanning from the entry after every split. *)
let run_func (f : Ir.func) =
  let splits = ref 0 in
  let rec walk = function
    | [] -> ()
    | (b : Ir.block) :: rest -> (
        match split_point b with
        | Some at ->
            let nb = Ir.split_block f b ~at in
            incr splits;
            walk (b :: nb :: rest)
        | None -> walk rest)
  in
  walk f.blocks;
  !splits

let run (m : Ir.modul) = List.fold_left (fun n f -> n + run_func f) 0 m.funcs

(* --- invariant checks (used by the test suite) ------------------------ *)

let satisfies_eq4 (b : Ir.block) =
  let loads = List.filter is_load b.instrs and stores = List.filter is_store b.instrs in
  loads = [] || stores = []

let satisfies_eq5 (b : Ir.block) =
  let v = List.filter is_volatile_or_call b.instrs in
  v = [] || List.length (Ir.body_instrs b) = 1

let satisfies_eq6 (b : Ir.block) =
  let body = Ir.body_instrs b in
  List.for_all Ir.is_phi body || not (List.exists Ir.is_phi body)

let check_func (f : Ir.func) =
  List.for_all
    (fun b -> satisfies_eq4 b && satisfies_eq5 b && satisfies_eq6 b)
    f.blocks
