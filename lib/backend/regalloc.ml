open Bs_isa
open Mir

(* Register allocation (§3.3.3).

   Phase 1 destroys SSA: critical edges are split and phis become parallel
   copies in predecessors (cycles broken through a temporary).

   Phase 2 is a linear scan over linearised SMIR.  Liveness uses the SMIR
   predecessor relation of equation (2): every block of a speculative
   region has an implicit edge to the region's handler, so values the
   handler (and the re-executed CFG_orig block) will read stay allocated
   across the whole region — the guarantee equation (9) provides in the
   paper.  Every 8-bit slice of every 32-bit register is exposed as an
   allocatable location: a 32-bit interval claims all four slices of a
   register, an 8-bit interval claims one, which is how multiple squeezed
   variables pack into one conventional register (§2.5).

   Calling convention: arguments on the stack, result in R0, callee saves
   every register it uses except R0.  Only intervals crossing a call must
   therefore avoid R0. *)

type loc =
  | Lreg of Isa.reg
  | Lslice of Isa.slice
  | Lstack of int          (* spill slot index *)

let allocatable = [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
let scratch0 = 11
let scratch1 = 12

(* --- phi elimination --------------------------------------------------- *)

let preds_map (f : mfunc) =
  let tbl = Hashtbl.create 16 in
  List.iter (fun b -> Hashtbl.replace tbl b.mbid []) f.mblocks;
  List.iter
    (fun b ->
      List.iter
        (fun s ->
          let cur = try Hashtbl.find tbl s with Not_found -> [] in
          if not (List.mem b.mbid cur) then Hashtbl.replace tbl s (b.mbid :: cur))
        (succs b))
    f.mblocks;
  tbl

let retarget (b : mblock) ~from_ ~to_ =
  let t = terminator b in
  t.mop <-
    (match t.mop with
    | Mb x -> Mb (if x = from_ then to_ else x)
    | Mbc (c, x, y) ->
        Mbc (c, (if x = from_ then to_ else x), if y = from_ then to_ else y)
    | other -> other)

let block_table (f : mfunc) =
  let tbl = Hashtbl.create 16 in
  List.iter (fun b -> Hashtbl.replace tbl b.mbid b) f.mblocks;
  fun bid ->
    match Hashtbl.find_opt tbl bid with Some b -> b | None -> raise Not_found

let split_critical_edges (f : mfunc) =
  let next_bid = ref (List.fold_left (fun m b -> max m b.mbid) 0 f.mblocks + 1) in
  let preds = preds_map f in
  let block = block_table f in
  let created = ref [] in
  List.iter
    (fun s ->
      if s.mphis <> [] then
        let ps = try Hashtbl.find preds s.mbid with Not_found -> [] in
        if List.length ps > 1 then
          List.iter
            (fun pbid ->
              let p = block pbid in
              if List.length (succs p) > 1 then begin
                (* critical edge p -> s: interpose a block *)
                let nb =
                  { mbid = !next_bid; mphis = [];
                    mins = [ mk_instr (Mb s.mbid) ];
                    in_region = None; handler_of = None;
                    is_orig = s.is_orig && p.is_orig }
                in
                incr next_bid;
                retarget p ~from_:s.mbid ~to_:nb.mbid;
                (* phi incomings from p now arrive via nb *)
                s.mphis <-
                  List.map
                    (fun (d, incoming) ->
                      ( d,
                        List.map
                          (fun (q, v) -> ((if q = pbid then nb.mbid else q), v))
                          incoming ))
                    s.mphis;
                created := nb :: !created
              end)
            ps)
    f.mblocks;
  f.mblocks <- f.mblocks @ List.rev !created

(* Emit one width-aware copy. *)
let copy_instr (f : mfunc) dst (src : vop2) =
  let wd = width_of f dst in
  match src with
  | Vi c -> mk_instr ~prov:PCopy (Mmovi (dst, c))
  | Vr s ->
      let ws = width_of f s in
      if wd = ws then mk_instr ~prov:PCopy (Mmov (dst, s))
      else if wd = 8 then mk_instr ~prov:PCopy (Mtrunc_exact (dst, s))
      else mk_instr ~prov:PCopy (Mext (Unsigned, dst, s))

(* Sequentialise a parallel copy, breaking cycles with a temporary. *)
let sequentialize (f : mfunc) (copies : (vreg * vop2) list) : minstr list =
  let pending = ref (List.filter (fun (d, s) -> s <> Vr d) copies) in
  let out = ref [] in
  let emit i = out := i :: !out in
  let src_is v (_, s) = s = Vr v in
  let rec loop () =
    match !pending with
    | [] -> ()
    | _ -> (
        match
          List.find_opt
            (fun (d, _) -> not (List.exists (src_is d) !pending))
            !pending
        with
        | Some ((d, s) as c) ->
            emit (copy_instr f d s);
            pending := List.filter (fun x -> x != c) !pending;
            loop ()
        | None ->
            (* cycle: rotate through a temp of the right width *)
            let (d, s) = List.hd !pending in
            let w = width_of f d in
            let t = fresh_vreg f ~width:w in
            emit (copy_instr f t (Vr d));
            pending :=
              List.map
                (fun (d', s') -> (d', if s' = Vr d then Vr t else s'))
                (List.tl !pending)
              @ [ (d, s) ];
            loop ())
  in
  loop ();
  List.rev !out

let eliminate_phis (f : mfunc) =
  split_critical_edges f;
  let block = block_table f in
  List.iter
    (fun s ->
      if s.mphis <> [] then begin
        (* group copies per incoming edge *)
        let by_pred = Hashtbl.create 4 in
        List.iter
          (fun (d, incoming) ->
            List.iter
              (fun (p, v) ->
                let cur = try Hashtbl.find by_pred p with Not_found -> [] in
                Hashtbl.replace by_pred p ((d, v) :: cur))
              incoming)
          s.mphis;
        Hashtbl.iter
          (fun pbid copies ->
            let p = block pbid in
            let seq = sequentialize f copies in
            (* insert before the terminator *)
            let rec place = function
              | [ t ] when (match t.mop with Mb _ | Mbc _ | Mret _ -> true | _ -> false) ->
                  seq @ [ t ]
              | x :: rest -> x :: place rest
              | [] -> seq
            in
            p.mins <- place p.mins)
          by_pred;
        s.mphis <- []
      end)
    f.mblocks

(* --- liveness ----------------------------------------------------------- *)

module VSet = Set.Make (Int)

let liveness (f : mfunc) =
  (* equation (2): region blocks flow into their handler *)
  let handler_of_region = Hashtbl.create 4 in
  List.iter
    (fun (rid, _, h) -> Hashtbl.replace handler_of_region rid h)
    f.mregions;
  let succs_ext b =
    succs b
    @ (match b.in_region with
      | Some r -> (
          match Hashtbl.find_opt handler_of_region r with
          | Some h -> [ h ]
          | None -> [])
      | None -> [])
  in
  let live_in = Hashtbl.create 16 and live_out = Hashtbl.create 16 in
  List.iter
    (fun b ->
      Hashtbl.replace live_in b.mbid VSet.empty;
      Hashtbl.replace live_out b.mbid VSet.empty)
    f.mblocks;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun b ->
        let out =
          List.fold_left
            (fun acc s ->
              VSet.union acc
                (try Hashtbl.find live_in s with Not_found -> VSet.empty))
            VSet.empty (succs_ext b)
        in
        let inn =
          List.fold_right
            (fun i live ->
              let defs, uses = defs_uses i in
              let live = List.fold_left (fun l d -> VSet.remove d l) live defs in
              List.fold_left (fun l u -> VSet.add u l) live uses)
            b.mins out
        in
        if
          not
            (VSet.equal out (Hashtbl.find live_out b.mbid)
            && VSet.equal inn (Hashtbl.find live_in b.mbid))
        then begin
          Hashtbl.replace live_out b.mbid out;
          Hashtbl.replace live_in b.mbid inn;
          changed := true
        end)
      (List.rev f.mblocks)
  done;
  (live_in, live_out)

(* --- linear scan -------------------------------------------------------- *)

(* A live interval is a set of disjoint ranges (holes preserved).  Without
   holes, the implicit region->handler edges of equation (2) would stretch
   every value read by CFG_orig across the whole function and manufacture
   spill pressure the hardware does not have. *)

type interval = {
  ivreg : vreg;
  iwidth : int;
  mutable ranges : (int * int) list;   (* sorted, disjoint [start, end) *)
  mutable icrosses_call : bool;
}

type result = {
  assignment : (vreg, loc) Hashtbl.t;
  spill_slots : int;                  (* number of 4-byte spill slots *)
  used_regs : Isa.reg list;           (* physical registers touched *)
}

let interval_start iv = match iv.ranges with (s, _) :: _ -> s | [] -> 0

(* Ranges are built block by block in layout order, so a new range never
   starts before an earlier one: while the intervals are being built their
   [ranges] are kept newest first, and a new range merges with the head
   when it touches it. *)
let add_range_rev iv s e =
  iv.ranges <-
    (match iv.ranges with
    | (s0, e0) :: rest when s <= e0 -> (s0, max e e0) :: rest
    | rs -> (s, e) :: rs)

(* Claimed ranges on one (reg, slice).  Claims only ever follow a
   successful free-probe, so the stored ranges are pairwise disjoint —
   which makes an overlap query a single predecessor lookup: among
   disjoint ranges, only the one with the greatest start below the
   query's end can reach into it.  They are kept sorted in two parallel
   int arrays, so a probe is a binary search that allocates nothing; a
   claim merges its ranges in from the back. *)
module Occ = struct
  type t = {
    mutable starts : int array;
    mutable ends : int array;
    mutable n : int;  (* claimed ranges: [starts.(i), ends.(i)), i < n *)
  }

  let create () = { starts = [||]; ends = [||]; n = 0 }

  let clashes o s e =
    (* [lo]: the first range starting at or after [e] *)
    let lo = ref 0 and hi = ref o.n in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if Array.unsafe_get o.starts mid < e then lo := mid + 1 else hi := mid
    done;
    !lo > 0 && Array.unsafe_get o.ends (!lo - 1) > s

  let claim o ranges =
    let add = Array.of_list ranges in
    let k = Array.length add and n = o.n in
    if n + k > Array.length o.starts then begin
      let cap = Int.max 8 (Int.max (n + k) (2 * Array.length o.starts)) in
      let grow a =
        let b = Array.make cap 0 in
        Array.blit a 0 b 0 n;
        b
      in
      o.starts <- grow o.starts;
      o.ends <- grow o.ends
    end;
    (* merge from the back, the new ranges highest first: each old
       range moves right by the number of new ranges below it *)
    let i = ref (n - 1) in
    for j = k - 1 downto 0 do
      let s, e = add.(j) in
      while !i >= 0 && o.starts.(!i) > s do
        o.starts.(!i + j + 1) <- o.starts.(!i);
        o.ends.(!i + j + 1) <- o.ends.(!i);
        decr i
      done;
      o.starts.(!i + j + 1) <- s;
      o.ends.(!i + j + 1) <- e
    done;
    o.n <- n + k
end

(* are all of [ranges] free on [o]?  (top level: a local closure over [o]
   would be allocated per probe) *)
let rec ranges_free o = function
  | [] -> true
  | (s, e) :: rest -> (not (Occ.clashes o s e)) && ranges_free o rest

module VTbl = Bs_ir.Ir.IntTbl

let build_intervals (f : mfunc) =
  let live_in, live_out = liveness f in
  let pos = ref 0 in
  let tbl : interval VTbl.t = VTbl.create 64 in
  let call_positions = ref [] in
  let get v =
    match VTbl.find_opt tbl v with
    | Some iv -> iv
    | None ->
        let iv = { ivreg = v; iwidth = width_of f v; ranges = [];
                   icrosses_call = false } in
        VTbl.replace tbl v iv;
        iv
  in
  List.iter
    (fun b ->
      let bstart = !pos in
      let bend = bstart + List.length b.mins in
      let lin = Hashtbl.find live_in b.mbid in
      let lout = Hashtbl.find live_out b.mbid in
      (* per-block last use / first def positions; [vars] lists the
         block's variables (live in, live out, or touched here) once *)
      let first_def = VTbl.create 8 and last_use = VTbl.create 8 in
      let listed = VTbl.create 16 and vars = ref [] in
      let touch v =
        if not (VTbl.mem listed v) then begin
          VTbl.replace listed v ();
          vars := v :: !vars
        end
      in
      VSet.iter touch lin;
      VSet.iter touch lout;
      List.iteri
        (fun k i ->
          let defs, uses = defs_uses i in
          List.iter
            (fun u ->
              VTbl.replace last_use u (bstart + k);
              touch u)
            uses;
          List.iter
            (fun d ->
              if not (VTbl.mem first_def d) then
                VTbl.replace first_def d (bstart + k);
              touch d)
            defs;
          match i.mop with
          | Mcall _ -> call_positions := (bstart + k) :: !call_positions
          | _ -> ())
        b.mins;
      List.iter
        (fun v ->
          (* a value used before any def here is upward exposed: it
             starts at the block's start like a live-in one *)
          let s =
            if VSet.mem v lin then bstart
            else
              match VTbl.find_opt first_def v with Some p -> p | None -> bstart
          in
          let e =
            if VSet.mem v lout then bend
            else
              match VTbl.find_opt last_use v with
              | Some p -> p + 1
              | None -> (
                  match VTbl.find_opt first_def v with
                  | Some p -> p + 1
                  | None -> bstart)
          in
          if e > s then add_range_rev (get v) s e
          else add_range_rev (get v) s (s + 1))
        !vars;
      pos := bend)
    f.mblocks;
  let intervals =
    VTbl.fold
      (fun _ iv acc ->
        iv.ranges <- List.rev iv.ranges;
        iv :: acc)
      tbl []
  in
  (* call positions, sorted for a binary-search probe per range (the
     pairwise calls × ranges scan was quadratic on call-heavy code) *)
  let calls = Array.of_list (List.sort Int.compare !call_positions) in
  let ncalls = Array.length calls in
  (* any call position in [s, e)? *)
  let call_in s e =
    let lo = ref 0 and hi = ref ncalls in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if calls.(mid) < s then lo := mid + 1 else hi := mid
    done;
    !lo < ncalls && calls.(!lo) < e
  in
  List.iter
    (fun iv ->
      iv.icrosses_call <-
        List.exists (fun (s, e) -> call_in s (e - 1)) iv.ranges)
    intervals;
  List.sort
    (fun a b ->
      match Int.compare (interval_start a) (interval_start b) with
      | 0 -> Int.compare a.ivreg b.ivreg
      | c -> c)
    intervals

(** [run ?regs f] allocates every virtual register of [f] to a register, a
    register slice, or a spill slot.  [regs] restricts the allocatable set
    (the Thumb build passes R0-R7). *)
(* RQ5's register-allocator heuristic: by default handlers are treated as
   almost-never-entered, so CFG_spec intervals allocate first and get the
   best registers; [orig_first] inverts the weights, giving CFG_orig
   first pick (the experiment that recovers MIN's code quality in §4). *)
let run ?(regs = allocatable) ?(orig_first = false) (f : mfunc) : result =
  let allocatable = regs in
  eliminate_phis f;
  let intervals = build_intervals f in
  let intervals =
    (* partition by where the interval starts: spec code lies before orig
       code in layout order, so block spans classify positions *)
    let pos = ref 0 in
    let orig_spans =
      Array.of_list
        (List.filter_map
           (fun b ->
             let s = !pos in
             pos := !pos + List.length b.mins;
             if b.is_orig then Some (s, !pos) else None)
           f.mblocks)
    in
    (* the spans lie in layout order: binary-search the last one starting
       at or before the interval's start *)
    let starts_in_orig iv =
      let x = interval_start iv in
      let lo = ref 0 and hi = ref (Array.length orig_spans) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if fst orig_spans.(mid) <= x then lo := mid + 1 else hi := mid
      done;
      !lo > 0 && x < snd orig_spans.(!lo - 1)
    in
    let o, sp = List.partition starts_in_orig intervals in
    if orig_first then o @ sp else sp @ o
  in
  (* Copy hints: allocating both ends of a move to the same register (or
     slice) lets the emitter elide it — this is what coalesces the phi
     webs the squeezer's SSA repair threads through CFG_orig. *)
  let hints : (vreg, vreg list) Hashtbl.t = Hashtbl.create 32 in
  let add_hint a b =
    let cur = try Hashtbl.find hints a with Not_found -> [] in
    Hashtbl.replace hints a (b :: cur)
  in
  List.iter
    (fun b ->
      List.iter
        (fun i ->
          match i.mop with
          | Mmov (d, s) | Mtrunc_exact (d, s) | Mext (_, d, s) ->
              add_hint d s;
              add_hint s d
          | _ -> ())
        b.mins)
    f.mblocks;
  (* occupancy per (reg, slice), at [4 * reg + slice] *)
  let occ =
    Array.init (4 * (1 + List.fold_left Int.max 0 allocatable)) (fun _ ->
        Occ.create ())
  in
  let slice_free r s iv = ranges_free occ.((4 * r) + s) iv.ranges in
  let reg_free r iv =
    slice_free r 0 iv && slice_free r 1 iv && slice_free r 2 iv
    && slice_free r 3 iv
  in
  let assignment = Hashtbl.create 64 in
  let spill_slots = ref 0 in
  let used = Hashtbl.create 16 in
  let claim_slice r s iv =
    Occ.claim occ.((4 * r) + s) iv.ranges;
    Hashtbl.replace used r ()
  in
  let claim_reg r iv =
    for s = 0 to 3 do
      claim_slice r s iv
    done
  in
  let no_r0 = List.filter (fun r -> r <> 0) allocatable in
  let hinted_locs iv =
    match Hashtbl.find_opt hints iv.ivreg with
    | None -> []
    | Some partners ->
        List.filter_map (fun p -> Hashtbl.find_opt assignment p) partners
  in
  List.iter
    (fun iv ->
      (* the candidate registers: an interval live across a call avoids R0 *)
      let cands = if iv.icrosses_call then no_r0 else allocatable in
      if iv.iwidth = 8 then begin
        (* prefer the slice (or slice 0 of the register) a copy partner got *)
        let hint =
          List.find_map
            (fun l ->
              match l with
              | Lslice sl
                when List.mem sl.Isa.sl_reg cands
                     && slice_free sl.Isa.sl_reg sl.Isa.sl_byte iv ->
                  Some (sl.Isa.sl_reg, sl.Isa.sl_byte)
              | Lreg r when List.mem r cands && slice_free r 0 iv ->
                  Some (r, 0)
              | _ -> None)
            (hinted_locs iv)
        in
        match hint with
        | Some (r, sl) ->
            claim_slice r sl iv;
            Hashtbl.replace assignment iv.ivreg
              (Lslice { sl_reg = r; sl_byte = sl })
        | None ->
        (* packing: prefer a slice of a register already hosting other
           slice values (most occupied slices first).  Each candidate's
           free slices are probed once; its score is how many are taken. *)
        let scored =
          List.map
            (fun r ->
              let free = List.filter (fun s -> slice_free r s iv) [ 0; 1; 2; 3 ] in
              (4 - List.length free, r, free))
            cands
        in
        (* highest score first, then lowest register *)
        let ranked =
          List.sort
            (fun (sa, a, _) (sb, b, _) ->
              match Int.compare sb sa with 0 -> Int.compare a b | c -> c)
            scored
        in
        let found =
          List.find_map
            (fun (sc, r, free) ->
              match free with
              | s :: _ when sc > 0 -> Some (r, s)
              | _ -> None)
            ranked
        in
        (* else the first candidate with all four slices free *)
        let found =
          match found with
          | Some _ -> found
          | None ->
              List.find_map
                (fun (sc, r, _) -> if sc = 0 then Some (r, 0) else None)
                scored
        in
        match found with
        | Some (r, s) ->
            claim_slice r s iv;
            Hashtbl.replace assignment iv.ivreg (Lslice { sl_reg = r; sl_byte = s })
        | None ->
            let slot = !spill_slots in
            incr spill_slots;
            Hashtbl.replace assignment iv.ivreg (Lstack slot)
      end
      else begin
        let hint =
          List.find_map
            (fun l ->
              match l with
              | Lreg r when List.mem r cands && reg_free r iv ->
                  Some r
              | _ -> None)
            (hinted_locs iv)
        in
        let reg =
          match hint with
          | Some r -> Some r
          | None -> List.find_opt (fun r -> reg_free r iv) cands
        in
        match reg with
        | Some r ->
            claim_reg r iv;
            Hashtbl.replace assignment iv.ivreg (Lreg r)
        | None ->
            let slot = !spill_slots in
            incr spill_slots;
            Hashtbl.replace assignment iv.ivreg (Lstack slot)
      end)
    intervals;
  { assignment; spill_slots = !spill_slots;
    used_regs = Hashtbl.fold (fun r () acc -> r :: acc) used [] }
