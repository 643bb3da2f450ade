open Bs_isa
open Isa
open Bs_interp

(* The BSARM machine's per-step semantics, and the trace-JIT that fuses
   hot paths of them.

   The machine is defined twice, once per execution level:

   - the reference step ({!step}): one instruction's full semantics —
     hazard checks, counter bumps, the operation — as one [match].  The
     dispatch table holds a closure per PC over it ({!bodies}); every
     step the trace-JIT does not fuse runs there, and so does every step
     of the [Classic] engine;

   - the fused level ([detect] + [install_jit]): maximal straight-line
     runs of fusible instructions are found statically at block leaders
     (entries, branch targets, fall-throughs, static misspeculation
     targets); a profiling closure at each head counts executions, and
     past [promote_threshold] it replaces itself with a single fused
     closure chaining counter-free steps ({!fused_step}).  Inside a
     fused trace the per-step loop overhead disappears: instruction and
     cycle counts and every static counter are flushed from per-exit
     ledgers, and instruction fetches are batched per cache line (within
     a straight line, only the first access of each I$ line can miss —
     the rest are replayed with {!Cache.bump_hits}).

   Every fetch that reaches the I$, stepped or fused, goes through
   {!fetch}: it tries the slot its PC's line was last found in
   ([ctx.ihints], one int per PC) and scans the set only when that slot
   no longer holds the line ({!Cache.access_hinted}), so most fetches
   cost one tag compare.  Fused loads and stores inline the image's
   bounds check and byte access ({!Memimage.read_u8} and kin) and the
   D$'s same-line check; a miss calls out.

   Guard exits mirror the hardware's own Δ fallback: a misspeculating
   instruction ends the trace early, flushes the counters and batched
   fetches accumulated so far, and returns [pc + Δ] to the dispatch
   loop.  The CLASSIC-mode entry guard falls back to the head's
   reference step, so the slice trap fires at its exact instruction.
   The event horizon ([ctx.horizon]) is the instruction count of the
   next step that needs a hook — the fuel limit, a pending fault, a
   stop, an interval checkpoint or a possible outage — so the same fused
   traces serve runs under power traces and fault injection: a trace
   runs fused every step below the horizon, leaves through a cut exit
   at the step at it, and [Machine] runs that step with its hooks.

   A fused trace must be byte-identical in observable effect (counters,
   outcome, memory image, every field of every cache: hits, misses,
   tick, tags, LRU stamps, last line and slot) to the same steps run one
   by one through {!step}; the engine tests difference the two.
   The one sanctioned divergence: when an instruction raises (division
   by zero, memory fault, classic-mode slice use), counters and
   run-local cache state may be part-updated.  [Machine] turns the trap
   into a [Trapped] result that keeps none of them, so no caller can
   observe them. *)

exception Sim_trap of Bs_support.Outcome.trap

(* latencies (cycles) *)
let l2_latency = 8
let dram_latency = 60
let branch_penalty = 2
let mul_penalty = 2
let div_penalty = 10

type state = {
  regs : int array;            (* 32-bit values *)
  mutable pc : int;
  mutable delta : int;
  mutable mode : Isa.mode;
  mutable halted : bool;
  (* compare state (condition evaluation without explicit flag bits) *)
  mutable cmp_a : int;
  mutable cmp_b : int;
  mutable cmp_width8 : bool;
  mutable last_load_dest : int; (* reg written by the previous load, -1 none *)
}

let[@inline] mask32 v = v land 0xFFFFFFFF

(* The counter helpers run on nearly every reference step; ocamlopt
   without flambda inlines only the tiniest functions unless asked. *)
let[@inline] read_reg st ctr r =
  ctr.Counters.reg_read32 <- ctr.Counters.reg_read32 + 1;
  st.regs.(r)

let[@inline] write_reg st ctr r v =
  ctr.Counters.reg_write32 <- ctr.Counters.reg_write32 + 1;
  st.regs.(r) <- mask32 v

let[@inline] read_slice st ctr (s : slice) =
  ctr.Counters.reg_read8 <- ctr.Counters.reg_read8 + 1;
  (st.regs.(s.sl_reg) lsr (8 * s.sl_byte)) land 0xFF

let[@inline] write_slice st ctr (s : slice) v =
  ctr.Counters.reg_write8 <- ctr.Counters.reg_write8 + 1;
  let shift = 8 * s.sl_byte in
  let keep = lnot (0xFF lsl shift) land 0xFFFFFFFF in
  st.regs.(s.sl_reg) <- st.regs.(s.sl_reg) land keep lor ((v land 0xFF) lsl shift)

(* The operands of a signed condition: a 32-bit compare's are sign
   extended, a slice compare's are bytes read unsigned. *)
let[@inline] signed_operand st u =
  if (not st.cmp_width8) && u land 0x80000000 <> 0 then u - 0x100000000
  else u

let eval_cond st (c : cond) =
  let ua = st.cmp_a land 0xFFFFFFFF and ub = st.cmp_b land 0xFFFFFFFF in
  match c with
  | CEq -> ua = ub
  | CNe -> ua <> ub
  | CUlt -> ua < ub
  | CUle -> ua <= ub
  | CUgt -> ua > ub
  | CUge -> ua >= ub
  | CSlt -> signed_operand st ua < signed_operand st ub
  | CSle -> signed_operand st ua <= signed_operand st ub
  | CSgt -> signed_operand st ua > signed_operand st ub
  | CSge -> signed_operand st ua >= signed_operand st ub

(* stall helpers: every stall burns cycles and is attributed to a kind *)
let[@inline] stall_other ctr n =
  ctr.Counters.cycles <- ctr.Counters.cycles + n;
  ctr.Counters.stall_cycles <- ctr.Counters.stall_cycles + n

let[@inline] stall_branch ctr =
  ctr.Counters.cycles <- ctr.Counters.cycles + branch_penalty;
  ctr.Counters.stall_cycles <- ctr.Counters.stall_cycles + branch_penalty;
  ctr.Counters.branch_stalls <- ctr.Counters.branch_stalls + branch_penalty

let[@inline] stall_load_use ctr =
  ctr.Counters.cycles <- ctr.Counters.cycles + 1;
  ctr.Counters.stall_cycles <- ctr.Counters.stall_cycles + 1;
  ctr.Counters.load_use_stalls <- ctr.Counters.load_use_stalls + 1

(* Everything a dispatch engine needs, bundled once per run. *)
type ctx = {
  st : state;
  ctr : Counters.t;
  mem : Memimage.t;
  icache : Cache.t;
  dcache : Cache.t;
  l2 : Cache.t;
  pc_counts : (int, int) Hashtbl.t;   (* misspeculation attribution *)
  prog : Bs_backend.Asm.program;
  ihints : int array;      (* per PC: the I$ slot its line was last found
                              in, the hint of every fetch of that PC *)
  mutable horizon : int;   (* instr count of the next step that needs a
                              hook; fused code never executes past it *)
  on_dmiss : (int -> unit) option;
      (* told the address of every D$ miss; the caches start cold, so
         the first touch of every line reaches it *)
}

(* A D$ miss: L2, then DRAM *)
let dmiss cx addr =
  (match cx.on_dmiss with Some f -> f addr | None -> ());
  if Cache.access cx.l2 addr then stall_other cx.ctr l2_latency
  else stall_other cx.ctr (l2_latency + dram_latency)

(* D$ -> L2 -> DRAM.  The D$ lookup is inlined into every load and
   store; a miss calls out. *)
let[@inline] mem_access cx addr =
  if not (Cache.access cx.dcache addr) then dmiss cx addr

(* Where code lives in the L2's address space: above every 32-bit data
   address, so an instruction line never shares a tag with a data line,
   and at a multiple of the L2's set span, so instruction [pc] maps to
   the set of address [4 * pc]. *)
let code_base = 1 lsl 32

(* An I$ miss: L2, then DRAM *)
let imiss cx pcv =
  if Cache.access cx.l2 (code_base + (pcv * 4)) then
    stall_other cx.ctr l2_latency
  else stall_other cx.ctr (l2_latency + dram_latency)

(* I$ -> L2 -> DRAM.  Every fetch of a PC carries that PC's hint: its
   line always maps to the same I$ set, so the slot it was last found in
   is where it is still found until an eviction. *)
let[@inline] fetch cx pcv =
  if not (Cache.access_hinted cx.icache cx.ihints pcv (pcv * 4)) then
    imiss cx pcv

(* Misspeculation at [pc]: count, attribute, pay the redirect, and return
   the displaced successor. *)
let misspec cx pc =
  let ctr = cx.ctr in
  ctr.Counters.misspecs <- ctr.Counters.misspecs + 1;
  (match Hashtbl.find_opt cx.pc_counts pc with
  | Some n -> Hashtbl.replace cx.pc_counts pc (n + 1)
  | None -> Hashtbl.add cx.pc_counts pc 1);
  stall_branch ctr;
  pc + cx.st.delta

let[@inline] classic_slice_trap st =
  if st.mode = Isa.Classic then
    raise (Sim_trap Bs_support.Outcome.Classic_mode_slice)

(* --- the reference step --------------------------------------------------- *)

(* load-use hazard checks against the previous step's load destination
   ([lld] is -1 when the previous instruction was not a load, and
   registers are >= 0; annotated [int] so [=] is not the polymorphic
   compare, a C call) *)
let[@inline] check1 ctr (lld : int) a = if lld = a then stall_load_use ctr

let[@inline] check2 ctr (lld : int) a b =
  if lld = a || lld = b then stall_load_use ctr

let[@inline] alu32 ctr = ctr.Counters.alu32 <- ctr.Counters.alu32 + 1
let[@inline] alu8 ctr = ctr.Counters.alu8 <- ctr.Counters.alu8 + 1

(* One instruction at [pc], with every counter it bumps; returns the
   successor pc.  Contract with the dispatch loop: it has already
   bounds-checked [pc], fetched it through the I$, charged one
   instruction and one cycle, checked fuel and counted the pc's
   spill/copy provenance.  The step leaves [st.last_load_dest] for the
   next one.  Slice operations trap here in CLASSIC mode (a hooked step
   has checked that already, a step below the horizon has not). *)
let step (cx : ctx) pc (insn : insn) : int =
  let st = cx.st and ctr = cx.ctr and mem = cx.mem in
  let lld = st.last_load_dest in
  st.last_load_dest <- -1;
  let nx = pc + 1 in
  match insn with
  | MOV (d, s) ->
      check1 ctr lld s;
      write_reg st ctr d (read_reg st ctr s);
      nx
  | MOVW (d, v) ->
      write_reg st ctr d v;
      nx
  | MOVT (d, v) ->
      check1 ctr lld d;
      write_reg st ctr d ((st.regs.(d) land 0xFFFF) lor (v lsl 16));
      nx
  | ALU (op, d, n, o) ->
      (match o with Reg m -> check2 ctr lld n m | Imm _ -> check1 ctr lld n);
      alu32 ctr;
      let a = read_reg st ctr n in
      let b = match o with Reg m -> read_reg st ctr m | Imm v -> v in
      let r =
        match op with
        | OpAdd -> a + b
        | OpSub -> a - b
        | OpAnd -> a land b
        | OpOrr -> a lor b
        | OpEor -> a lxor b
        | OpLsl -> a lsl (b land 31)
        | OpLsr -> (a land 0xFFFFFFFF) lsr (b land 31)
        | OpAsr ->
            let sa = if a land 0x80000000 <> 0 then a - 0x100000000 else a in
            sa asr (b land 31)
      in
      write_reg st ctr d r;
      nx
  | MUL (d, n, m) ->
      check2 ctr lld n m;
      ctr.Counters.mul_ops <- ctr.Counters.mul_ops + 1;
      stall_other ctr mul_penalty;
      write_reg st ctr d (read_reg st ctr n * read_reg st ctr m);
      nx
  | DIV (sg, d, n, m) ->
      check2 ctr lld n m;
      ctr.Counters.div_ops <- ctr.Counters.div_ops + 1;
      stall_other ctr div_penalty;
      let a = read_reg st ctr n and b = read_reg st ctr m in
      if b = 0 then raise (Sim_trap Bs_support.Outcome.Division_by_zero);
      let r =
        match sg with
        | Unsigned -> a / b
        | Signed ->
            let s v = if v land 0x80000000 <> 0 then v - 0x100000000 else v in
            s a / s b
      in
      write_reg st ctr d r;
      nx
  | CMP (n, o) ->
      (match o with Reg m -> check2 ctr lld n m | Imm _ -> check1 ctr lld n);
      alu32 ctr;
      st.cmp_a <- read_reg st ctr n;
      st.cmp_b <- (match o with Reg m -> read_reg st ctr m | Imm v -> v);
      st.cmp_width8 <- false;
      nx
  | CSET (c, d) ->
      alu32 ctr;
      write_reg st ctr d (if eval_cond st c then 1 else 0);
      nx
  | B t ->
      stall_branch ctr;
      t
  | BC (c, t) ->
      alu32 ctr;
      if eval_cond st c then begin
        stall_branch ctr;
        t
      end
      else nx
  | BL t ->
      write_reg st ctr lr nx;
      stall_branch ctr;
      t
  | BX_LR ->
      let t = read_reg st ctr lr in
      stall_branch ctr;
      t
  | LDR (w, sg, d, n, off) ->
      check1 ctr lld n;
      let addr = (read_reg st ctr n + off) land 0xFFFFFFFF in
      ctr.Counters.loads <- ctr.Counters.loads + 1;
      mem_access cx addr;
      let width = match w with W8 -> 8 | W16 -> 16 | W32 -> 32 in
      let v = Memimage.read_int mem ~width addr in
      let v =
        match (sg, w) with
        | Signed, W8 -> if v land 0x80 <> 0 then v lor 0xFFFFFF00 else v
        | Signed, W16 -> if v land 0x8000 <> 0 then v lor 0xFFFF0000 else v
        | _ -> v
      in
      write_reg st ctr d v;
      st.last_load_dest <- d;
      nx
  | STR (w, s, n, off) ->
      check2 ctr lld s n;
      let addr = (read_reg st ctr n + off) land 0xFFFFFFFF in
      ctr.Counters.stores <- ctr.Counters.stores + 1;
      mem_access cx addr;
      let width = match w with W8 -> 8 | W16 -> 16 | W32 -> 32 in
      Memimage.write_int mem ~width addr (read_reg st ctr s);
      nx
  | SXT (w, d, s) ->
      check1 ctr lld s;
      alu32 ctr;
      let v = read_reg st ctr s in
      let r =
        match w with
        | W8 -> if v land 0x80 <> 0 then v lor 0xFFFFFF00 else v land 0xFF
        | W16 -> if v land 0x8000 <> 0 then v lor 0xFFFF0000 else v land 0xFFFF
        | W32 -> v
      in
      write_reg st ctr d r;
      nx
  | UXT (w, d, s) ->
      check1 ctr lld s;
      alu32 ctr;
      let v = read_reg st ctr s in
      let r = match w with W8 -> v land 0xFF | W16 -> v land 0xFFFF | W32 -> v in
      write_reg st ctr d r;
      nx
  | BALU (op, d, n, o) -> (
      classic_slice_trap st;
      check1 ctr lld n.sl_reg;
      alu8 ctr;
      let a = read_slice st ctr n in
      let b = match o with Sl s -> read_slice st ctr s | BImm v -> v land 0xFF in
      match op with
      | BAdd ->
          let r = a + b in
          if r > 0xFF then misspec cx pc
          else begin
            write_slice st ctr d r;
            nx
          end
      | BSub ->
          let r = a - b in
          if r < 0 then misspec cx pc
          else begin
            write_slice st ctr d r;
            nx
          end
      | BAnd ->
          write_slice st ctr d (a land b);
          nx
      | BOrr ->
          write_slice st ctr d (a lor b);
          nx
      | BEor ->
          write_slice st ctr d (a lxor b);
          nx)
  | BCMPS (n, o) ->
      classic_slice_trap st;
      alu8 ctr;
      st.cmp_a <- read_slice st ctr n;
      st.cmp_b <- (match o with Sl s -> read_slice st ctr s | BImm v -> v land 0xFF);
      st.cmp_width8 <- true;
      nx
  | BLDRS (d, n, x) ->
      classic_slice_trap st;
      check1 ctr lld n;
      let off = match x with BOff o -> o | BIdx i -> read_slice st ctr i in
      let addr = (read_reg st ctr n + off) land 0xFFFFFFFF in
      ctr.Counters.loads <- ctr.Counters.loads + 1;
      mem_access cx addr;
      let v = Memimage.read_int mem ~width:32 addr in
      if v land 0xFFFFFF00 <> 0 then misspec cx pc
      else begin
        write_slice st ctr d v;
        st.last_load_dest <- d.sl_reg;
        nx
      end
  | BLDRB (d, n, x) ->
      classic_slice_trap st;
      check1 ctr lld n;
      let off = match x with BOff o -> o | BIdx i -> read_slice st ctr i in
      let addr = (read_reg st ctr n + off) land 0xFFFFFFFF in
      ctr.Counters.loads <- ctr.Counters.loads + 1;
      mem_access cx addr;
      write_slice st ctr d (Memimage.read_int mem ~width:8 addr);
      st.last_load_dest <- d.sl_reg;
      nx
  | BSTRB (s, n, x) ->
      classic_slice_trap st;
      check2 ctr lld s.sl_reg n;
      let off = match x with BOff o -> o | BIdx i -> read_slice st ctr i in
      let addr = (read_reg st ctr n + off) land 0xFFFFFFFF in
      ctr.Counters.stores <- ctr.Counters.stores + 1;
      mem_access cx addr;
      Memimage.write_int mem ~width:8 addr (read_slice st ctr s);
      nx
  | BEXT (sg, d, s) ->
      classic_slice_trap st;
      check1 ctr lld s.sl_reg;
      alu8 ctr;
      let v = read_slice st ctr s in
      let r =
        match sg with
        | Unsigned -> v
        | Signed -> if v land 0x80 <> 0 then v lor 0xFFFFFF00 else v
      in
      write_reg st ctr d r;
      nx
  | BTRN (d, s) ->
      classic_slice_trap st;
      check1 ctr lld s;
      alu8 ctr;
      let v = read_reg st ctr s in
      if v land 0xFFFFFF00 <> 0 then misspec cx pc
      else begin
        write_slice st ctr d v;
        nx
      end
  | BMOV (d, s) ->
      classic_slice_trap st;
      check1 ctr lld s.sl_reg;
      write_slice st ctr d (read_slice st ctr s);
      nx
  | BMOVI (d, v) ->
      classic_slice_trap st;
      write_slice st ctr d v;
      nx
  | SETDELTA v ->
      st.delta <- v;
      nx
  | SETMODE m ->
      st.mode <- m;
      nx
  | NOP -> nx
  | HALT ->
      st.halted <- true;
      nx

let unset_body : unit -> int = fun () -> assert false

(* The dispatch table's closure per PC over {!step}: the instruction is
   decoded once, and only PCs tagged as spill or copy traffic pay for
   counting it.  The table is made with a static closure and then
   filled: a table of more than 256 words lives in the major heap, and
   making one with a young first element ([Array.mapi] does) forces a
   minor collection. *)
let bodies (cx : ctx) : (unit -> int) array =
  let ctr = cx.ctr in
  let code = cx.prog.Bs_backend.Asm.code in
  let table = Array.make (Array.length code) unset_body in
  Array.iteri
    (fun pc insn ->
      table.(pc) <-
        (match cx.prog.Bs_backend.Asm.prov.(pc) with
        | PSpillLoad ->
            fun () ->
              ctr.Counters.spill_loads <- ctr.Counters.spill_loads + 1;
              step cx pc insn
        | PSpillStore ->
            fun () ->
              ctr.Counters.spill_stores <- ctr.Counters.spill_stores + 1;
              step cx pc insn
        | PCopy ->
            fun () ->
              ctr.Counters.copies <- ctr.Counters.copies + 1;
              step cx pc insn
        | _ -> fun () -> step cx pc insn))
    code;
  table

(* --- superblock detection ------------------------------------------------ *)

(* An instruction may join a trace if control always falls through it
   (misspeculation exits via a guard) and it cannot change the dispatch
   mode or Δ mid-trace.  Everything else ends the straight line. *)
let fusible = function
  | B _ | BC _ | BL _ | BX_LR | HALT | SETDELTA _ | SETMODE _ -> false
  | _ -> true

let min_trace_len = 2
let max_trace_len = 128
let promote_threshold = 8

type trace = {
  t_head : int;      (* = t_pcs.(0); the dispatch slot the trace owns *)
  t_pcs : int array; (* the executed path: straight-line runs stitched
                        together through interior unconditional jumps and
                        forward conditionals (fall-through direction) *)
  t_stop : int;      (* the first pc NOT on the path: a terminal branch
                        to absorb, or the fall-through successor *)
}

(* Static trace heads: block leaders of the straight-line CFG — function
   entries, branch/call targets, fall-throughs after control flow — plus
   the static misspeculation targets (pc + Δ lands on the skeleton slot
   mirroring pc).

   From each head the trace follows the superblock path:

   - a fusible instruction falls through;
   - a forward conditional continues on its fall-through direction (the
     taken direction becomes a counted guard exit, like a misspeculation
     guard);
   - an unconditional [B] is followed THROUGH: control always transfers,
     so the jump is pure static accounting (taken-branch penalty plus its
     fetch) and the path resumes at the target — this stitches the
     backend's trampolined basic blocks into whole loop bodies;
   - anything with a dynamic or mode-changing successor (BL, BX_LR, HALT,
     SETMODE, SETDELTA), a backward conditional (left terminal so a
     loop-back to the head can re-enter the fused chain directly), a jump
     back to the head or to any pc already on the path (the path would
     cycle), or the length cap ends the walk. *)
let detect (p : Bs_backend.Asm.program) : trace list =
  let code = p.Bs_backend.Asm.code in
  let n = Array.length code in
  let leader = Array.make n false in
  let mark t = if t >= 0 && t < n then leader.(t) <- true in
  Hashtbl.iter (fun _ e -> mark e) p.Bs_backend.Asm.entries;
  Array.iteri
    (fun pcv insn ->
      (match insn with
      | B t -> mark t; mark (pcv + 1)
      | BC (_, t) -> mark t; mark (pcv + 1)
      | BL t -> mark t; mark (pcv + 1)   (* pcv+1 is the return target *)
      | BX_LR | HALT -> mark (pcv + 1)
      | _ -> ());
      if can_misspeculate insn then mark (pcv + p.Bs_backend.Asm.delta))
    code;
  (* [stamp.(pc) = key] marks pc as on the path currently being walked;
     the key is unique per (head, direction preference), so no clearing
     between walks *)
  let stamp = Array.make n (-1) in
  let path = Array.make max_trace_len 0 in
  (* walk the superblock path from head [h].  [prefer_taken] picks the
     direction followed through a forward conditional whose fall-through
     is an unconditional jump — the backend's loop-continue idiom is
     [bcmp; b.cond CONTINUE; b EXIT], so following the taken side can
     close the loop back to [h]; the fall-through side is the safe
     default when it doesn't (a wrong taken-guess would make the hot
     path exit the trace at the guard every time). *)
  let walk h ~prefer_taken =
    let key = (2 * h) + if prefer_taken then 1 else 0 in
    let len = ref 0 in
    let pc = ref h and stop = ref (-1) in
    while !stop < 0 do
      let pcv = !pc in
      if !len = max_trace_len || pcv < 0 || pcv >= n || stamp.(pcv) = key
      then stop := pcv
      else begin
        let continue_at nx =
          path.(!len) <- pcv;
          incr len;
          stamp.(pcv) <- key;
          pc := nx
        in
        match code.(pcv) with
        | B t | BL t ->
            (* jumps and calls transfer unconditionally, so they are pure
               static accounting (plus the link write, for calls) and the
               walk follows them through *)
            if t = h || t < 0 || t >= n || stamp.(t) = key then stop := pcv
            else continue_at t
        | BC (_, t) ->
            if t = h then stop := pcv (* loop-back to the head *)
            else if
              prefer_taken
              && t >= 0 && t < n && stamp.(t) <> key
              && pcv + 1 < n
              && match code.(pcv + 1) with B _ -> true | _ -> false
            then continue_at t
            else continue_at (pcv + 1)
        | insn when fusible insn -> continue_at (pcv + 1)
        | _ -> stop := pcv
      end
    done;
    (!len, !stop)
  in
  let traces = ref [] in
  for h = 0 to n - 1 do
    if leader.(h) && fusible code.(h) then begin
      (* try the loop-seeking walk first; keep it only if it actually
         closes the loop, else take the fall-through walk *)
      let len, stop =
        let len, stop = walk h ~prefer_taken:true in
        let closed =
          stop >= 0 && stop < n
          && match code.(stop) with B t | BC (_, t) -> t = h | _ -> false
        in
        if closed then (len, stop) else walk h ~prefer_taken:false
      in
      (* a trace ending at a branch absorbs it into the fused exit, so
         even a single-instruction block is worth fusing there *)
      let terminal_branch =
        stop >= 0 && stop < n
        && match code.(stop) with
           | B _ | BC _ | BL _ | BX_LR -> true
           | _ -> false
      in
      if len >= min_trace_len || (len >= 1 && terminal_branch) then
        traces :=
          { t_head = h; t_pcs = Array.sub path 0 len; t_stop = stop }
          :: !traces
    end
  done;
  List.rev !traces

(* --- trace fusion -------------------------------------------------------- *)

(* Inside a straight-line trace, almost all bookkeeping is static:

   - every counter a reference step bumps (register-file reads/writes, ALU
     activity, MUL/DIV penalties, load/store counts, spill provenance) is
     a constant of the opcode;
   - every load-use hazard except the first instruction's is resolved at
     fuse time, because each instruction's [last_load_dest] contribution
     is itself static on the fall-through path;
   - [last_load_dest] only matters to whoever runs AFTER the trace, so it
     is written once at each exit instead of once per instruction.

   Fusion therefore compiles counter-free semantic closures
   ({!fused_step}) and folds the whole static ledger into per-exit
   prefix-sum constants ({!delta}), applied by the exit that actually
   fires: the tail (whole trace completed), or a misspeculation guard at
   position j (instructions 0..j-1 completed plus j's execute side — a
   misspeculating instruction reads its operands and pays its ALU but
   suppresses its write-back).  Dynamic costs — D$/L2 stalls, the entry
   hazard, the misspeculation redirect itself — are still charged at
   runtime as they occur, and a DIV-by-zero raise escapes [run] before
   any result is observable, so deferred flushing is exact. *)

(* Static per-instruction counter ledger: everything a reference step
   would bump, minus the loop's 1 instr + 1 cycle (charged separately at
   exits) and minus dynamic memory stalls. *)
type delta = {
  x_cycles : int;  (* beyond the base cycle: MUL/DIV penalties, static
                      load-use stalls *)
  x_stall : int;
  x_lu : int;
  x_br : int;      (* branch-stall cycles; only deferred loop-back
                      iterations accumulate these *)
  x_rr32 : int;
  x_rw32 : int;
  x_rr8 : int;
  x_rw8 : int;
  x_alu32 : int;
  x_alu8 : int;
  x_mul : int;
  x_div : int;
  x_loads : int;
  x_stores : int;
  x_spl : int;
  x_sps : int;
  x_cop : int;
}

let dzero =
  { x_cycles = 0; x_stall = 0; x_lu = 0; x_br = 0; x_rr32 = 0; x_rw32 = 0;
    x_rr8 = 0;
    x_rw8 = 0; x_alu32 = 0; x_alu8 = 0; x_mul = 0; x_div = 0; x_loads = 0;
    x_stores = 0; x_spl = 0; x_sps = 0; x_cop = 0 }

let dadd a b =
  { x_cycles = a.x_cycles + b.x_cycles;
    x_stall = a.x_stall + b.x_stall;
    x_lu = a.x_lu + b.x_lu;
    x_br = a.x_br + b.x_br;
    x_rr32 = a.x_rr32 + b.x_rr32;
    x_rw32 = a.x_rw32 + b.x_rw32;
    x_rr8 = a.x_rr8 + b.x_rr8;
    x_rw8 = a.x_rw8 + b.x_rw8;
    x_alu32 = a.x_alu32 + b.x_alu32;
    x_alu8 = a.x_alu8 + b.x_alu8;
    x_mul = a.x_mul + b.x_mul;
    x_div = a.x_div + b.x_div;
    x_loads = a.x_loads + b.x_loads;
    x_stores = a.x_stores + b.x_stores;
    x_spl = a.x_spl + b.x_spl;
    x_sps = a.x_sps + b.x_sps;
    x_cop = a.x_cop + b.x_cop }

(* [dscale d n] = n deferred loop-back iterations' worth of [d]. *)
let dscale d n =
  { x_cycles = d.x_cycles * n;
    x_stall = d.x_stall * n;
    x_lu = d.x_lu * n;
    x_br = d.x_br * n;
    x_rr32 = d.x_rr32 * n;
    x_rw32 = d.x_rw32 * n;
    x_rr8 = d.x_rr8 * n;
    x_rw8 = d.x_rw8 * n;
    x_alu32 = d.x_alu32 * n;
    x_alu8 = d.x_alu8 * n;
    x_mul = d.x_mul * n;
    x_div = d.x_div * n;
    x_loads = d.x_loads * n;
    x_stores = d.x_stores * n;
    x_spl = d.x_spl * n;
    x_sps = d.x_sps * n;
    x_cop = d.x_cop * n }

(* [apply_delta ctr d base]: flush one exit's ledger; [base] is the
   number of completed instructions still owed to instrs/cycles (the
   dispatch loop pre-charged the trace head's). *)
let apply_delta ctr (d : delta) base =
  let open Counters in
  ctr.instrs <- ctr.instrs + base;
  ctr.cycles <- ctr.cycles + base + d.x_cycles;
  (* zero groups are the norm for short traces: skip their writes *)
  if d.x_stall lor d.x_lu lor d.x_br <> 0 then begin
    ctr.stall_cycles <- ctr.stall_cycles + d.x_stall;
    ctr.load_use_stalls <- ctr.load_use_stalls + d.x_lu;
    ctr.branch_stalls <- ctr.branch_stalls + d.x_br
  end;
  if d.x_rr32 lor d.x_rw32 lor d.x_alu32 <> 0 then begin
    ctr.reg_read32 <- ctr.reg_read32 + d.x_rr32;
    ctr.reg_write32 <- ctr.reg_write32 + d.x_rw32;
    ctr.alu32 <- ctr.alu32 + d.x_alu32
  end;
  if d.x_loads lor d.x_stores <> 0 then begin
    ctr.loads <- ctr.loads + d.x_loads;
    ctr.stores <- ctr.stores + d.x_stores
  end;
  if d.x_rr8 lor d.x_rw8 lor d.x_alu8 <> 0 then begin
    ctr.reg_read8 <- ctr.reg_read8 + d.x_rr8;
    ctr.reg_write8 <- ctr.reg_write8 + d.x_rw8;
    ctr.alu8 <- ctr.alu8 + d.x_alu8
  end;
  if d.x_mul lor d.x_div <> 0 then begin
    ctr.mul_ops <- ctr.mul_ops + d.x_mul;
    ctr.div_ops <- ctr.div_ops + d.x_div
  end;
  if d.x_spl lor d.x_sps lor d.x_cop <> 0 then begin
    ctr.spill_loads <- ctr.spill_loads + d.x_spl;
    ctr.spill_stores <- ctr.spill_stores + d.x_sps;
    ctr.copies <- ctr.copies + d.x_cop
  end

let slice_operand_reads = function Sl _ -> 1 | BImm _ -> 0
let boff_reads = function BOff _ -> 0 | BIdx _ -> 1

(* The counters an instruction bumps before (or regardless of) its
   write-back — paid even when it misspeculates.  Must mirror {!step}
   bump for bump; note its asymmetries: MOVT reads its register directly
   (no read counter), and CSET/BCMPS do not hazard-check. *)
let exec_side (insn : insn) =
  match insn with
  | MOV _ -> { dzero with x_rr32 = 1 }
  | MOVW _ | MOVT _ -> dzero
  | ALU (_, _, _, Reg _) -> { dzero with x_rr32 = 2; x_alu32 = 1 }
  | ALU (_, _, _, Imm _) -> { dzero with x_rr32 = 1; x_alu32 = 1 }
  | MUL _ ->
      { dzero with x_rr32 = 2; x_mul = 1; x_cycles = mul_penalty;
        x_stall = mul_penalty }
  | DIV _ ->
      { dzero with x_rr32 = 2; x_div = 1; x_cycles = div_penalty;
        x_stall = div_penalty }
  | CMP (_, Reg _) -> { dzero with x_rr32 = 2; x_alu32 = 1 }
  | CMP (_, Imm _) -> { dzero with x_rr32 = 1; x_alu32 = 1 }
  | CSET _ -> { dzero with x_alu32 = 1 }
  | LDR _ -> { dzero with x_rr32 = 1; x_loads = 1 }
  | STR _ -> { dzero with x_rr32 = 2; x_stores = 1 }
  | SXT _ | UXT _ -> { dzero with x_rr32 = 1; x_alu32 = 1 }
  | BALU (_, _, _, o) ->
      { dzero with x_rr8 = 1 + slice_operand_reads o; x_alu8 = 1 }
  | BCMPS (_, o) -> { dzero with x_rr8 = 1 + slice_operand_reads o; x_alu8 = 1 }
  | BLDRS (_, _, x) | BLDRB (_, _, x) ->
      { dzero with x_rr32 = 1; x_rr8 = boff_reads x; x_loads = 1 }
  | BSTRB (_, _, x) ->
      { dzero with x_rr32 = 1; x_rr8 = 1 + boff_reads x; x_stores = 1 }
  | BEXT _ -> { dzero with x_rr8 = 1; x_alu8 = 1 }
  | BTRN _ -> { dzero with x_rr32 = 1; x_alu8 = 1 }
  | BMOV _ -> { dzero with x_rr8 = 1 }
  | BMOVI _ | NOP -> dzero
  | BC _ -> { dzero with x_alu32 = 1 } (* interior: condition evaluation *)
  | B _ ->
      (* interior: always taken, so the penalty is static *)
      { dzero with x_cycles = branch_penalty; x_stall = branch_penalty;
        x_br = branch_penalty }
  | BL _ ->
      (* interior call: always taken, plus the link-register write *)
      { dzero with x_cycles = branch_penalty; x_stall = branch_penalty;
        x_br = branch_penalty; x_rw32 = 1 }
  | BX_LR | HALT | SETDELTA _ | SETMODE _ ->
      assert false (* never on a trace path *)

(* The write-back counter, suppressed by a misspeculation. *)
let write_side (insn : insn) =
  match insn with
  | MOV _ | MOVW _ | MOVT _ | ALU _ | MUL _ | DIV _ | CSET _ | LDR _
  | SXT _ | UXT _ | BEXT _ ->
      { dzero with x_rw32 = 1 }
  | BALU _ | BLDRS _ | BLDRB _ | BMOV _ | BMOVI _ | BTRN _ ->
      { dzero with x_rw8 = 1 }
  | CMP _ | BCMPS _ | STR _ | BSTRB _ | NOP | BC _ | B _ | BL _ -> dzero
  | BX_LR | HALT | SETDELTA _ | SETMODE _ -> assert false

let prov_delta = function
  | PSpillLoad -> { dzero with x_spl = 1 }
  | PSpillStore -> { dzero with x_sps = 1 }
  | PCopy -> { dzero with x_cop = 1 }
  | _ -> dzero

(* The registers an instruction's load-use hazard check watches — exactly
   the check1/check2 arguments in {!step} (empty where the step performs
   no check). *)
let hazard_regs (insn : insn) =
  match insn with
  | MOV (_, s) -> [ s ]
  | MOVT (d, _) -> [ d ]
  | ALU (_, _, n, Reg m) -> [ n; m ]
  | ALU (_, _, n, Imm _) -> [ n ]
  | MUL (_, n, m) | DIV (_, _, n, m) -> [ n; m ]
  | CMP (n, Reg m) -> [ n; m ]
  | CMP (n, Imm _) -> [ n ]
  | LDR (_, _, _, n, _) -> [ n ]
  | STR (_, s, n, _) -> [ s; n ]
  | SXT (_, _, s) | UXT (_, _, s) -> [ s ]
  | BALU (_, _, n, _) -> [ n.sl_reg ]
  | BLDRS (_, n, _) | BLDRB (_, n, _) -> [ n ]
  | BSTRB (s, n, _) -> [ s.sl_reg; n ]
  | BEXT (_, _, s) -> [ s.sl_reg ]
  | BTRN (_, s) -> [ s ]
  | BMOV (_, s) -> [ s.sl_reg ]
  | MOVW _ | CSET _ | BCMPS _ | BMOVI _ | NOP -> []
  | B _ | BC _ | BL _ | BX_LR | HALT | SETDELTA _ | SETMODE _ -> []

(* The [last_load_dest] an instruction leaves behind on its fall-through
   path (every misspeculation path leaves -1 and exits the trace). *)
let static_load_dest (insn : insn) =
  match insn with
  | LDR (_, _, d, _, _) -> d
  | BLDRS (d, _, _) | BLDRB (d, _, _) -> d.sl_reg
  | _ -> -1

(* Every register-file index an instruction touches.  Fused steps use
   unchecked array accesses, so {!fuse} refuses to fuse any trace whose
   indices are not proven in range here (the assembler never emits such a
   program, but a malformed one must keep the reference step's
   out-of-bounds exception rather than read garbage). *)
let regs_of_insn (insn : insn) =
  let op = function Sl s -> [ s.sl_reg ] | BImm _ -> [] in
  let idx = function BOff _ -> [] | BIdx i -> [ i.sl_reg ] in
  match insn with
  | MOV (d, s) -> [ d; s ]
  | MOVW (d, _) | MOVT (d, _) | CSET (_, d) -> [ d ]
  | ALU (_, d, n, Reg m) -> [ d; n; m ]
  | ALU (_, d, n, Imm _) -> [ d; n ]
  | MUL (d, n, m) | DIV (_, d, n, m) -> [ d; n; m ]
  | CMP (n, Reg m) -> [ n; m ]
  | CMP (n, Imm _) -> [ n ]
  | LDR (_, _, d, n, _) -> [ d; n ]
  | STR (_, s, n, _) -> [ s; n ]
  | SXT (_, d, s) | UXT (_, d, s) -> [ d; s ]
  | BALU (_, d, n, o) -> d.sl_reg :: n.sl_reg :: op o
  | BCMPS (n, o) -> n.sl_reg :: op o
  | BLDRS (d, n, x) | BLDRB (d, n, x) -> d.sl_reg :: n :: idx x
  | BSTRB (s, n, x) -> s.sl_reg :: n :: idx x
  | BEXT (_, d, s) -> [ d; s.sl_reg ]
  | BTRN (d, s) -> [ d.sl_reg; s ]
  | BMOV (d, s) -> [ d.sl_reg; s.sl_reg ]
  | BMOVI (d, _) -> [ d.sl_reg ]
  | NOP -> []
  | B _ | BC _ | HALT | SETDELTA _ | SETMODE _ -> []
  | BL _ | BX_LR -> [ lr ]

(* Register-file accesses of the fused steps: unchecked ({!fuse} has
   proved every index in range via {!regs_of_insn}) and typed [int
   array].  At the polymorphic type of [Array.unsafe_get] every read
   would test for a float array and every write would go through
   [caml_modify]; at [int array] both are one machine instruction. *)
let[@inline] ( .%() ) (regs : int array) r = Array.unsafe_get regs r

let[@inline] ( .%()<- ) (regs : int array) r (v : int) =
  Array.unsafe_set regs r v

let[@inline] sext32 v = if v land 0x80000000 <> 0 then v - 0x100000000 else v

(* One fused position: pure semantics.  No counters, no hazard checks, no
   [last_load_dest] writes, no CLASSIC-mode trap (the trace entry guard
   falls back when the mode is wrong, and SETMODE is not fusible, so the
   mode cannot change mid-trace).  [next] continues the chain; [mis] is
   the counted guard exit for instructions that can misspeculate.

   Each closure makes direct calls only, besides the tail call of
   [next] (or [mis]): operands are decoded here to ints, and every
   operator × operand shape has its own closure with the operator
   written inline — a shared higher-order helper would call its
   operator through [caml_apply2] on every execution. *)
let fused_step (cx : ctx) (insn : insn) ~(next : unit -> int)
    ~(mis : (unit -> int) option) : unit -> int =
  let st = cx.st and mem = cx.mem in
  let regs = st.regs in
  match insn with
  | MOV (d, s) ->
      fun () ->
        regs.%(d) <- regs.%(s);
        next ()
  | MOVW (d, v) ->
      let v = mask32 v in
      fun () ->
        regs.%(d) <- v;
        next ()
  | MOVT (d, v) ->
      let hi = mask32 (v lsl 16) in
      fun () ->
        regs.%(d) <- regs.%(d) land 0xFFFF lor hi;
        next ()
  | ALU (op, d, n, Reg m) -> (
      match op with
      | OpAdd ->
          fun () ->
            regs.%(d) <- mask32 (regs.%(n) + regs.%(m));
            next ()
      | OpSub ->
          fun () ->
            regs.%(d) <- mask32 (regs.%(n) - regs.%(m));
            next ()
      | OpAnd ->
          fun () ->
            regs.%(d) <- mask32 (regs.%(n) land regs.%(m));
            next ()
      | OpOrr ->
          fun () ->
            regs.%(d) <- mask32 (regs.%(n) lor regs.%(m));
            next ()
      | OpEor ->
          fun () ->
            regs.%(d) <- mask32 (regs.%(n) lxor regs.%(m));
            next ()
      | OpLsl ->
          fun () ->
            regs.%(d) <- mask32 (regs.%(n) lsl (regs.%(m) land 31));
            next ()
      | OpLsr ->
          fun () ->
            regs.%(d) <-
              mask32 ((regs.%(n) land 0xFFFFFFFF) lsr (regs.%(m) land 31));
            next ()
      | OpAsr ->
          fun () ->
            regs.%(d) <- mask32 (sext32 regs.%(n) asr (regs.%(m) land 31));
            next ())
  | ALU (op, d, n, Imm v) -> (
      match op with
      | OpAdd ->
          fun () ->
            regs.%(d) <- mask32 (regs.%(n) + v);
            next ()
      | OpSub ->
          fun () ->
            regs.%(d) <- mask32 (regs.%(n) - v);
            next ()
      | OpAnd ->
          fun () ->
            regs.%(d) <- mask32 (regs.%(n) land v);
            next ()
      | OpOrr ->
          fun () ->
            regs.%(d) <- mask32 (regs.%(n) lor v);
            next ()
      | OpEor ->
          fun () ->
            regs.%(d) <- mask32 (regs.%(n) lxor v);
            next ()
      | OpLsl ->
          let sh = v land 31 in
          fun () ->
            regs.%(d) <- mask32 (regs.%(n) lsl sh);
            next ()
      | OpLsr ->
          let sh = v land 31 in
          fun () ->
            regs.%(d) <- mask32 ((regs.%(n) land 0xFFFFFFFF) lsr sh);
            next ()
      | OpAsr ->
          let sh = v land 31 in
          fun () ->
            regs.%(d) <- mask32 (sext32 regs.%(n) asr sh);
            next ())
  | MUL (d, n, m) ->
      fun () ->
        regs.%(d) <- mask32 (regs.%(n) * regs.%(m));
        next ()
  | DIV (Unsigned, d, n, m) ->
      fun () ->
        let b = regs.%(m) in
        if b = 0 then raise (Sim_trap Bs_support.Outcome.Division_by_zero);
        regs.%(d) <- mask32 (regs.%(n) / b);
        next ()
  | DIV (Signed, d, n, m) ->
      fun () ->
        let b = regs.%(m) in
        if b = 0 then raise (Sim_trap Bs_support.Outcome.Division_by_zero);
        regs.%(d) <- mask32 (sext32 regs.%(n) / sext32 b);
        next ()
  | CMP (n, o) -> (
      match o with
      | Reg m ->
          fun () ->
            st.cmp_a <- regs.%(n);
            st.cmp_b <- regs.%(m);
            st.cmp_width8 <- false;
            next ()
      | Imm v ->
          fun () ->
            st.cmp_a <- regs.%(n);
            st.cmp_b <- v;
            st.cmp_width8 <- false;
            next ())
  | CSET (c, d) ->
      fun () ->
        regs.%(d) <- (if eval_cond st c then 1 else 0);
        next ()
  | LDR (w, sg, d, n, off) -> (
      match (sg, w) with
      | Signed, W8 ->
          fun () ->
            let addr = (regs.%(n) + off) land 0xFFFFFFFF in
            mem_access cx addr;
            let v = Memimage.read_u8 mem addr in
            regs.%(d) <- (if v land 0x80 <> 0 then v lor 0xFFFFFF00 else v);
            next ()
      | Signed, W16 ->
          fun () ->
            let addr = (regs.%(n) + off) land 0xFFFFFFFF in
            mem_access cx addr;
            let v = Memimage.read_u16 mem addr in
            regs.%(d) <-
              (if v land 0x8000 <> 0 then v lor 0xFFFF0000 else v);
            next ()
      | Unsigned, W8 ->
          fun () ->
            let addr = (regs.%(n) + off) land 0xFFFFFFFF in
            mem_access cx addr;
            regs.%(d) <- Memimage.read_u8 mem addr;
            next ()
      | Unsigned, W16 ->
          fun () ->
            let addr = (regs.%(n) + off) land 0xFFFFFFFF in
            mem_access cx addr;
            regs.%(d) <- Memimage.read_u16 mem addr;
            next ()
      | _, W32 ->
          fun () ->
            let addr = (regs.%(n) + off) land 0xFFFFFFFF in
            mem_access cx addr;
            regs.%(d) <- Memimage.read_u32 mem addr;
            next ())
  | STR (w, s, n, off) -> (
      match w with
      | W8 ->
          fun () ->
            let addr = (regs.%(n) + off) land 0xFFFFFFFF in
            mem_access cx addr;
            Memimage.write_u8 mem addr regs.%(s);
            next ()
      | W16 ->
          fun () ->
            let addr = (regs.%(n) + off) land 0xFFFFFFFF in
            mem_access cx addr;
            Memimage.write_u16 mem addr regs.%(s);
            next ()
      | W32 ->
          fun () ->
            let addr = (regs.%(n) + off) land 0xFFFFFFFF in
            mem_access cx addr;
            Memimage.write_u32 mem addr regs.%(s);
            next ())
  | SXT (w, d, s) -> (
      match w with
      | W8 ->
          fun () ->
            let v = regs.%(s) in
            regs.%(d) <-
              (if v land 0x80 <> 0 then v lor 0xFFFFFF00 else v land 0xFF);
            next ()
      | W16 ->
          fun () ->
            let v = regs.%(s) in
            regs.%(d) <-
              (if v land 0x8000 <> 0 then v lor 0xFFFF0000 else v land 0xFFFF);
            next ()
      | W32 ->
          fun () ->
            regs.%(d) <- regs.%(s);
            next ())
  | UXT (w, d, s) ->
      let m = match w with W8 -> 0xFF | W16 -> 0xFFFF | W32 -> 0xFFFFFFFF in
      fun () ->
        regs.%(d) <- regs.%(s) land m;
        next ()
  | BALU (op, d, n, o) -> (
      let nr = n.sl_reg and ns = 8 * n.sl_byte in
      let dr = d.sl_reg and ds = 8 * d.sl_byte in
      let keep = lnot (0xFF lsl ds) land 0xFFFFFFFF in
      (* every fall-through value below is already in [0, 0xFF] (guarded
         for add/sub, structural for the logic ops), so the slice write
         skips the byte mask *)
      match (op, o) with
      | BAdd, Sl s ->
          let sr = s.sl_reg and ss = 8 * s.sl_byte in
          let mis = Option.get mis in
          fun () ->
            let r =
              ((regs.%(nr) lsr ns) land 0xFF)
              + ((regs.%(sr) lsr ss) land 0xFF)
            in
            if r > 0xFF then mis ()
            else begin
              regs.%(dr) <- regs.%(dr) land keep lor (r lsl ds);
              next ()
            end
      | BAdd, BImm v ->
          let v = v land 0xFF in
          let mis = Option.get mis in
          fun () ->
            let r = ((regs.%(nr) lsr ns) land 0xFF) + v in
            if r > 0xFF then mis ()
            else begin
              regs.%(dr) <- regs.%(dr) land keep lor (r lsl ds);
              next ()
            end
      | BSub, Sl s ->
          let sr = s.sl_reg and ss = 8 * s.sl_byte in
          let mis = Option.get mis in
          fun () ->
            let r =
              ((regs.%(nr) lsr ns) land 0xFF)
              - ((regs.%(sr) lsr ss) land 0xFF)
            in
            if r < 0 then mis ()
            else begin
              regs.%(dr) <- regs.%(dr) land keep lor (r lsl ds);
              next ()
            end
      | BSub, BImm v ->
          let v = v land 0xFF in
          let mis = Option.get mis in
          fun () ->
            let r = ((regs.%(nr) lsr ns) land 0xFF) - v in
            if r < 0 then mis ()
            else begin
              regs.%(dr) <- regs.%(dr) land keep lor (r lsl ds);
              next ()
            end
      | BAnd, Sl s ->
          let sr = s.sl_reg and ss = 8 * s.sl_byte in
          fun () ->
            let r = (regs.%(nr) lsr ns) land (regs.%(sr) lsr ss) land 0xFF in
            regs.%(dr) <- regs.%(dr) land keep lor (r lsl ds);
            next ()
      | BAnd, BImm v ->
          let v = v land 0xFF in
          fun () ->
            let r = (regs.%(nr) lsr ns) land v in
            regs.%(dr) <- regs.%(dr) land keep lor (r lsl ds);
            next ()
      | BOrr, Sl s ->
          let sr = s.sl_reg and ss = 8 * s.sl_byte in
          fun () ->
            let r =
              ((regs.%(nr) lsr ns) lor (regs.%(sr) lsr ss)) land 0xFF
            in
            regs.%(dr) <- regs.%(dr) land keep lor (r lsl ds);
            next ()
      | BOrr, BImm v ->
          let v = v land 0xFF in
          fun () ->
            let r = ((regs.%(nr) lsr ns) land 0xFF) lor v in
            regs.%(dr) <- regs.%(dr) land keep lor (r lsl ds);
            next ()
      | BEor, Sl s ->
          let sr = s.sl_reg and ss = 8 * s.sl_byte in
          fun () ->
            let r =
              ((regs.%(nr) lsr ns) lxor (regs.%(sr) lsr ss)) land 0xFF
            in
            regs.%(dr) <- regs.%(dr) land keep lor (r lsl ds);
            next ()
      | BEor, BImm v ->
          let v = v land 0xFF in
          fun () ->
            let r = ((regs.%(nr) lsr ns) land 0xFF) lxor v in
            regs.%(dr) <- regs.%(dr) land keep lor (r lsl ds);
            next ())
  | BCMPS (n, o) -> (
      let nr = n.sl_reg and ns = 8 * n.sl_byte in
      match o with
      | Sl s ->
          let sr = s.sl_reg and ss = 8 * s.sl_byte in
          fun () ->
            st.cmp_a <- (regs.%(nr) lsr ns) land 0xFF;
            st.cmp_b <- (regs.%(sr) lsr ss) land 0xFF;
            st.cmp_width8 <- true;
            next ()
      | BImm v ->
          let v = v land 0xFF in
          fun () ->
            st.cmp_a <- (regs.%(nr) lsr ns) land 0xFF;
            st.cmp_b <- v;
            st.cmp_width8 <- true;
            next ())
  | BLDRS (d, n, x) -> (
      let dr = d.sl_reg and ds = 8 * d.sl_byte in
      let keep = lnot (0xFF lsl ds) land 0xFFFFFFFF in
      let mis = Option.get mis in
      match x with
      | BOff o ->
          fun () ->
            let addr = (regs.%(n) + o) land 0xFFFFFFFF in
            mem_access cx addr;
            let v = Memimage.read_u32 mem addr in
            if v land 0xFFFFFF00 <> 0 then mis ()
            else begin
              regs.%(dr) <- regs.%(dr) land keep lor (v lsl ds);
              next ()
            end
      | BIdx i ->
          let ir = i.sl_reg and is = 8 * i.sl_byte in
          fun () ->
            let addr =
              (regs.%(n) + ((regs.%(ir) lsr is) land 0xFF)) land 0xFFFFFFFF
            in
            mem_access cx addr;
            let v = Memimage.read_u32 mem addr in
            if v land 0xFFFFFF00 <> 0 then mis ()
            else begin
              regs.%(dr) <- regs.%(dr) land keep lor (v lsl ds);
              next ()
            end)
  | BLDRB (d, n, x) -> (
      let dr = d.sl_reg and ds = 8 * d.sl_byte in
      let keep = lnot (0xFF lsl ds) land 0xFFFFFFFF in
      match x with
      | BOff o ->
          fun () ->
            let addr = (regs.%(n) + o) land 0xFFFFFFFF in
            mem_access cx addr;
            let v = Memimage.read_u8 mem addr in
            regs.%(dr) <- regs.%(dr) land keep lor (v lsl ds);
            next ()
      | BIdx i ->
          let ir = i.sl_reg and is = 8 * i.sl_byte in
          fun () ->
            let addr =
              (regs.%(n) + ((regs.%(ir) lsr is) land 0xFF)) land 0xFFFFFFFF
            in
            mem_access cx addr;
            let v = Memimage.read_u8 mem addr in
            regs.%(dr) <- regs.%(dr) land keep lor (v lsl ds);
            next ())
  | BSTRB (s, n, x) -> (
      let sr = s.sl_reg and ss = 8 * s.sl_byte in
      match x with
      | BOff o ->
          fun () ->
            let addr = (regs.%(n) + o) land 0xFFFFFFFF in
            mem_access cx addr;
            Memimage.write_u8 mem addr ((regs.%(sr) lsr ss) land 0xFF);
            next ()
      | BIdx i ->
          let ir = i.sl_reg and is = 8 * i.sl_byte in
          fun () ->
            let addr =
              (regs.%(n) + ((regs.%(ir) lsr is) land 0xFF)) land 0xFFFFFFFF
            in
            mem_access cx addr;
            Memimage.write_u8 mem addr ((regs.%(sr) lsr ss) land 0xFF);
            next ())
  | BEXT (sg, d, s) -> (
      let sr = s.sl_reg and ss = 8 * s.sl_byte in
      match sg with
      | Unsigned ->
          fun () ->
            regs.%(d) <- (regs.%(sr) lsr ss) land 0xFF;
            next ()
      | Signed ->
          fun () ->
            let v = (regs.%(sr) lsr ss) land 0xFF in
            regs.%(d) <- (if v land 0x80 <> 0 then v lor 0xFFFFFF00 else v);
            next ())
  | BTRN (d, s) ->
      let dr = d.sl_reg and ds = 8 * d.sl_byte in
      let keep = lnot (0xFF lsl ds) land 0xFFFFFFFF in
      let mis = Option.get mis in
      fun () ->
        let v = regs.%(s) in
        if v land 0xFFFFFF00 <> 0 then mis ()
        else begin
          regs.%(dr) <- regs.%(dr) land keep lor (v lsl ds);
          next ()
        end
  | BMOV (d, s) ->
      let dr = d.sl_reg and ds = 8 * d.sl_byte in
      let keep = lnot (0xFF lsl ds) land 0xFFFFFFFF in
      let sr = s.sl_reg and ss = 8 * s.sl_byte in
      fun () ->
        let v = (regs.%(sr) lsr ss) land 0xFF in
        regs.%(dr) <- regs.%(dr) land keep lor (v lsl ds);
        next ()
  | BMOVI (d, v) ->
      let dr = d.sl_reg and ds = 8 * d.sl_byte in
      let keep = lnot (0xFF lsl ds) land 0xFFFFFFFF in
      let bits = (v land 0xFF) lsl ds in
      fun () ->
        regs.%(dr) <- regs.%(dr) land keep lor bits;
        next ()
  | NOP -> next
  | B _ | BC _ | BL _ | BX_LR | HALT | SETDELTA _ | SETMODE _ ->
      assert false

(* Precondition for {!fuse}: every register-file index in the trace is in
   range, so the unchecked accesses in {!fused_step} are sound.  Any
   program the assembler emits passes; a malformed one stays on the
   reference step and raises exactly where a step-by-step run would. *)
let trace_regs_ok (cx : ctx) (tr : trace) =
  let code = cx.prog.Bs_backend.Asm.code in
  let nregs = Array.length cx.st.regs in
  let ok = ref true in
  Array.iter
    (fun pcv ->
      List.iter
        (fun r -> if r < 0 || r >= nregs then ok := false)
        (regs_of_insn code.(pcv)))
    tr.t_pcs;
  !ok

(* Fuse one trace into a single closure with the same contract as a body:
   called after the loop has fetched/charged the head below the event
   horizon, it executes the straight line up to the horizon and returns
   the successor pc.

   What the fusion removes relative to stepping one by one:

   - the per-instruction loop itself (fetch, charge, fuel check,
     dispatch): fetches are batched per I$ line — the first access of
     each line goes through {!fetch} at the crossing (it alone can miss),
     the rest are replayed as guaranteed same-line hits with
     {!Cache.bump_hits} at the next crossing or exit;
   - every static counter bump and statically-resolved hazard stall,
     flushed as one precomputed {!delta} at the exit that fires;
   - the per-step event-horizon check: the trace compares its budget
     with the horizon once at entry, and a loop trace once per
     loop-back.

   Guard exits: a misspeculating instruction branches to its dedicated
   exit closure, which flushes the prefix ledger (its own execute side
   included, its write-back suppressed), restores [last_load_dest], pays
   the redirect through {!misspec} and returns the displaced pc — the
   software mirror of the hardware's PC := PC + Δ fallback.

   Cut exits: when the horizon (the fuel limit, a fault, a stop, a
   checkpoint or an outage) falls inside the trace, positions 0..j-1 —
   the ones a step below the horizon would run — still run fused, and
   the trace leaves at position j, the first step that needs a hook.
   The cut exit flushes the prefix ledger [pre.(j)], replays the
   deferred same-line fetch hits, leaves position j-1's static
   [last_load_dest] and returns [pcs.(j)] (the terminal branch, for
   j = len), so the dispatch loop's hooked step lands exactly where
   stepping would have put it.  The cut runs on a second chain, built on
   the trace's first cut, whose every position checks whether it is the
   cut; the uncut chain carries no such check. *)
let fuse (cx : ctx) (tr : trace) (fallback : unit -> int) : unit -> int =
  let ctr = cx.ctr and icache = cx.icache and st = cx.st in
  let pcs = tr.t_pcs and stop = tr.t_stop in
  let head = tr.t_head and len = Array.length tr.t_pcs in
  let code = cx.prog.Bs_backend.Asm.code in
  let prov = cx.prog.Bs_backend.Asm.prov in
  let has_slice = Array.exists (fun pcv -> is_slice_insn code.(pcv)) pcs in
  let line pcv = pcv lsr 3 in          (* 32-byte lines, 4-byte slots *)
  (* the path position after j: the next element, or the trace's stop *)
  let succ j = if j + 1 < len then pcs.(j + 1) else stop in
  (* a conditional on the path followed its taken direction (the
     not-taken side is its guard exit, so the taken penalty is static) *)
  let followed_taken j =
    match code.(pcs.(j)) with BC (_, t) -> succ j = t | _ -> false
  in
  (* terminal detection comes first: a terminal branch back to the trace
     head makes this a LOOP trace, whose taken path defers its ledger *)
  let term =
    if stop >= 0 && stop < Array.length code then
      match code.(stop) with
      | (B _ | BC _ | BL _ | BX_LR) as i -> Some i
      | _ -> None
    else None
  in
  let looping =
    match term with
    | Some (B t) | Some (BC (_, t)) -> t = head
    | _ -> false
  in
  (* the instructions a whole pass runs past its head's pre-charge: the
     positions after the head, and the absorbed terminal branch *)
  let budget = match term with None -> len - 1 | Some _ -> len in
  (* A loop trace defers whole iterations: its taken loop-back branch
     only counts the finished iteration in [k] and tail-calls back into
     the chain; every real exit settles the [k] outstanding iterations in
     one scaled flush.  Each deferred iteration owes the full tail ledger
     [d_tail], the taken-branch penalty, and the next head's pre-charge
     (the +1 inside [lenp1]).  Instruction-cache traffic is NOT deferred
     — every iteration fetches for real — so the cache model stays exact
     at every point.  [k] is zero whenever the trace is entered from the
     dispatch loop: every exit below settles it, and an exception
     escaping mid-trace aborts the run before the closure can be entered
     again. *)
  let k = ref 0 in
  let lenp1 = len + 1 in
  (* the cut position of the current pass; the uncut chain's first step,
     through which the looping tail starts the next iteration without
     bouncing through the dispatch loop; and the cut chain's first step,
     a builder until the trace's first cut *)
  let cut = ref 0 in
  let first_ref = ref fallback and cut_first = ref fallback in
  (* [build ~cuts] computes the static ledgers and builds one chain back
     to front, returning its first step.  With [cuts], every position
     j >= 1 that a pass can be cut at first checks whether it is the
     cut.  Nothing but the exits' own ledgers outlives the build, so a
     trace that is never cut holds no more than its uncut chain. *)
  let build ~cuts =
    (* pend.(j): same-line fetch hits deferred up to and including
       position j's fetch (position 0 was fetched by the loop, so
       pend.(0) = 0) *)
    let pend = Array.make len 0 in
    for j = 1 to len - 1 do
      pend.(j) <-
        (if line pcs.(j) <> line pcs.(j - 1) then 0 else pend.(j - 1) + 1)
    done;
    (* the static ledger: exec.(j) is position j's execute side (operand
       reads, ALU activity, penalties, provenance, and — statically
       resolved for j >= 1 — its load-use stall); pre.(j) accumulates
       the full fall-through ledger of positions 0..j-1 *)
    let exec =
      Array.init len (fun j ->
          let insn = code.(pcs.(j)) in
          let d = dadd (exec_side insn) (prov_delta prov.(pcs.(j))) in
          let d =
            if followed_taken j then
              { d with x_cycles = d.x_cycles + branch_penalty;
                x_stall = d.x_stall + branch_penalty;
                x_br = d.x_br + branch_penalty }
            else d
          in
          if j = 0 then d (* the entry hazard is dynamic; checked at runtime *)
          else
            let prev = static_load_dest code.(pcs.(j - 1)) in
            if prev >= 0 && List.mem prev (hazard_regs insn) then
              { d with x_cycles = d.x_cycles + 1; x_stall = d.x_stall + 1;
                x_lu = d.x_lu + 1 }
            else d)
    in
    let pre = Array.make (len + 1) dzero in
    for j = 0 to len - 1 do
      pre.(j + 1) <- dadd pre.(j) (dadd exec.(j) (write_side code.(pcs.(j))))
    done;
    let d_tail =
      match term with
      | None -> pre.(len)
      | Some br -> (
          let d = dadd pre.(len) (prov_delta prov.(stop)) in
          match br with
          | BC _ -> { d with x_alu32 = d.x_alu32 + 1 }
          | BL _ -> { d with x_rw32 = d.x_rw32 + 1 }
          | BX_LR -> { d with x_rr32 = d.x_rr32 + 1 }
          | _ -> d)
    in
    let d_iter =
      dadd d_tail
        { dzero with x_cycles = branch_penalty; x_stall = branch_penalty;
          x_br = branch_penalty }
    in
    let flush d base =
      let kk = !k in
      if kk = 0 then apply_delta ctr d base
      else begin
        k := 0;
        apply_delta ctr (dadd (dscale d_iter kk) d) ((kk * lenp1) + base)
      end
    in
    (* guard exit at position j: 0..j-1 completed, j misspeculated *)
    let mis_exit j =
      let d = dadd pre.(j) exec.(j) and p = pend.(j) and pc = pcs.(j) in
      fun () ->
        Cache.bump_hits icache p;
        flush d j;
        st.last_load_dest <- -1;
        misspec cx pc
    in
    (* position j of the cut chain: the cut exit if this pass is cut at
       j (0..j-1 completed, j is the step at the horizon), else [c] *)
    let guard j c =
      if (not cuts) || j > budget then c
      else
        let d = pre.(j) and p = pend.(j - 1) and nx = succ (j - 1) in
        let lld = static_load_dest code.(pcs.(j - 1)) in
        fun () ->
          if !cut = j then begin
            Cache.bump_hits icache p;
            flush d (j - 1);
            st.last_load_dest <- lld;
            nx
          end
          else c ()
    in
    (* the normal exit charges the full trace; if the straight line ends
       at a branch, absorb it — the branch's fetch is either one more
       batched same-line hit or the first access of its line, its
       instr/cycle joins the flush, and the exit returns the branch
       target directly instead of bouncing the branch through the
       dispatch loop *)
    let tail =
      match term with
      | None ->
          let d = pre.(len) and p = pend.(len - 1) in
          let lld = static_load_dest code.(pcs.(len - 1)) in
          let nx = stop in
          fun () ->
            Cache.bump_hits icache p;
            apply_delta ctr d (len - 1);
            st.last_load_dest <- lld;
            nx
      | Some br -> (
          let same_line = line stop = line pcs.(len - 1) in
          let p = if same_line then pend.(len - 1) + 1 else pend.(len - 1) in
          if looping then
            (* The taken path replays the dispatch loop's per-instruction
               work inline — fetch the head, defer its pre-charge into
               [k], re-check the event horizon — and tail-calls back into
               the chain.  The entry-time guards hold statically on this
               path: the dynamic position-0 hazard cannot fire because a
               branch leaves [last_load_dest] = -1, and the CLASSIC-mode
               slice check cannot change inside the trace (SETMODE is not
               fusible and every misspeculation exits).  When the next
               iteration would reach the horizon, it runs on the cut
               chain up to it; when even its head is at the horizon,
               settle and return to the dispatch loop, which hooks the
               head. *)
            let taken_continue () =
              (* how far the next iteration's last step lies past the
                 horizon *)
              let over =
                ctr.Counters.instrs + ((!k + 1) * lenp1) + len - cx.horizon
              in
              if over <= 0 then begin
                incr k;
                fetch cx head;
                !first_ref ()
              end
              else if over <= len then begin
                incr k;
                fetch cx head;
                cut := lenp1 - over;
                !cut_first ()
              end
              else begin
                stall_branch ctr;
                flush d_tail len;
                st.last_load_dest <- -1;
                head
              end
            in
            match br with
            | B _ ->
                if same_line then
                  fun () ->
                    Cache.bump_hits icache p;
                    taken_continue ()
                else
                  fun () ->
                    Cache.bump_hits icache p;
                    fetch cx stop;
                    taken_continue ()
            | BC (c, _) ->
                let nx = stop + 1 in
                let exit_nx () =
                  flush d_tail len;
                  st.last_load_dest <- -1;
                  nx
                in
                if same_line then
                  fun () ->
                    Cache.bump_hits icache p;
                    if eval_cond st c then taken_continue () else exit_nx ()
                else
                  fun () ->
                    Cache.bump_hits icache p;
                    fetch cx stop;
                    if eval_cond st c then taken_continue () else exit_nx ()
            | _ -> assert false
          else
            let fin =
              match br with
              | B t ->
                  fun () ->
                    stall_branch ctr;
                    t
              | BC (c, t) ->
                  let nx = stop + 1 in
                  fun () ->
                    if eval_cond st c then begin
                      stall_branch ctr;
                      t
                    end
                    else nx
              | BL t ->
                  let link = stop + 1 in
                  fun () ->
                    st.regs.(lr) <- link;
                    stall_branch ctr;
                    t
              | BX_LR ->
                  fun () ->
                    stall_branch ctr;
                    st.regs.(lr)
              | _ -> assert false
            in
            if same_line then
              fun () ->
                Cache.bump_hits icache p;
                apply_delta ctr d_tail len;
                st.last_load_dest <- -1;
                fin ()
            else
              fun () ->
                Cache.bump_hits icache p;
                fetch cx stop;
                apply_delta ctr d_tail len;
                st.last_load_dest <- -1;
                fin ())
    in
    (* build the chain back to front; a position's cut check comes
       before its line-crossing fetch *)
    let chain = ref (guard len tail) in
    for j = len - 1 downto 0 do
      let pcv = pcs.(j) in
      let insn = code.(pcv) in
      let step =
        match insn with
        | B _ ->
            (* interior unconditional jump: control always transfers, so
               there is nothing to do at runtime — its ledger
               (always-taken penalty, provenance) is static in
               [exec.(j)], and the target's fetch is the next position's
               line-crossing wrapper *)
            !chain
        | BL _ ->
            (* interior call: like a jump, but the link write is
               semantic — only the register store happens at runtime (its
               counter is static, in [exec.(j)]) *)
            let link = pcv + 1 in
            let nx = !chain in
            fun () ->
              st.regs.(lr) <- link;
              nx ()
        | BC (c, _) when followed_taken j ->
            (* interior conditional followed on its taken direction: the
               chain continues at the target (the taken penalty is
               static, in [exec.(j)]); the not-taken direction is a
               counted guard exit — positions 0..j complete, minus the
               unpaid penalty *)
            let d =
              dadd pre.(j)
                { exec.(j) with
                  x_cycles = exec.(j).x_cycles - branch_penalty;
                  x_stall = exec.(j).x_stall - branch_penalty;
                  x_br = exec.(j).x_br - branch_penalty }
            and p = pend.(j) in
            let nx = !chain in
            let ft = pcv + 1 in
            fun () ->
              if eval_cond st c then nx ()
              else begin
                Cache.bump_hits icache p;
                flush d j;
                st.last_load_dest <- -1;
                ft
              end
        | BC (c, t) ->
            (* interior forward conditional on its fall-through
               direction: the taken direction is a counted guard exit —
               positions 0..j (the branch included) complete, plus the
               taken-branch penalty *)
            let d = dadd pre.(j) exec.(j) and p = pend.(j) in
            let nx = !chain in
            fun () ->
              if eval_cond st c then begin
                Cache.bump_hits icache p;
                flush d j;
                st.last_load_dest <- -1;
                stall_branch ctr;
                t
              end
              else nx ()
        | _ ->
            let mis =
              if can_misspeculate insn then Some (mis_exit j) else None
            in
            fused_step cx insn ~next:!chain ~mis
      in
      let fetched =
        if j > 0 && line pcv <> line pcs.(j - 1) then begin
          let p = pend.(j - 1) in
          fun () ->
            Cache.bump_hits icache p;
            fetch cx pcv;
            step ()
        end
        else step
      in
      chain := if j > 0 then guard j fetched else fetched
    done;
    !chain
  in
  let first = build ~cuts:false in
  first_ref := first;
  cut_first :=
    (fun () ->
      let f = build ~cuts:true in
      cut_first := f;
      f ());
  (* position 0: already fetched and charged by the loop, but its hazard
     depends on whatever loaded before the trace — keep it dynamic *)
  let with_entry_hazard first =
    match hazard_regs code.(head) with
    | [] -> first
    | [ a ] ->
        fun () ->
          if st.last_load_dest = a then stall_load_use ctr;
          first ()
    | [ a; b ] ->
        fun () ->
          if st.last_load_dest = a || st.last_load_dest = b then
            stall_load_use ctr;
          first ()
    | _ -> assert false
  in
  let entry = with_entry_hazard first in
  let cut_entry = with_entry_hazard (fun () -> !cut_first ()) in
  fun () ->
    (* entry guards: a CLASSIC-mode slice trap must fire at its exact
       instruction, so it falls back to the head's reference step; a
       horizon inside the trace cuts it at the horizon's position (the
       loop ran the head below the horizon, so that position is >= 1) *)
    if has_slice && st.mode = Isa.Classic then fallback ()
    else
      let over = ctr.Counters.instrs + budget - cx.horizon in
      if over <= 0 then entry ()
      else begin
        cut := budget + 1 - over;
        cut_entry ()
      end

(* Lazy promotion: each trace head starts as a profiling closure counting
   executions; at [promote_threshold] it fuses the trace once and replaces
   itself.  Cold heads never pay fusion. *)
let install_jit (cx : ctx) (bodies : (unit -> int) array) :
    (unit -> int) array =
  let dispatch = Array.copy bodies in
  List.iter
    (fun tr ->
      let head = tr.t_head in
      let base = bodies.(head) in
      let count = ref 0 in
      dispatch.(head) <-
        (fun () ->
          incr count;
          if !count >= promote_threshold then begin
            let fused =
              if trace_regs_ok cx tr then fuse cx tr base else base
            in
            dispatch.(head) <- fused;
            fused ()
          end
          else base ()))
    (detect cx.prog);
  dispatch
