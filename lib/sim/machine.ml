open Bs_isa
open Isa
open Bs_interp
open Superblock

(* The BSARM machine model: a 32-bit, single-issue, in-order 6-stage
   pipeline with the BITSPEC misspeculation hardware (§3.5).

   Register slices alias register bytes exactly as in hardware: reading
   slice (r, k) extracts byte k of Rr, writing it replaces that byte only.
   The slice ALU detects misspeculation from carry/overflow at the slice
   boundary; on misspeculation the result is not written and the PC is
   displaced by the Δ special register, landing on the skeleton branch
   that enters the current region's handler.

   Timing: 1 cycle per instruction, +2 for taken branches (fetch
   redirect), +1 for load-use hazards, +2 for MUL, +10 for DIV, plus the
   memory hierarchy (L1 hit 0, L2 8, DRAM 60 extra cycles).  Misspeculation
   costs the redirect plus the skeleton branch.

   One loop runs the model ([exec]).  Each step goes through the
   reference step ([Superblock.step], one closure per PC) or, below the
   event horizon, through a fused trace of the trace-JIT.  The horizon
   is the next instruction count at which fuel, a fault, a stop, a
   checkpoint or an outage needs a hook; the step at it runs with the
   hooks.  The two engines are that loop with two horizons:

   - [Jit]: fuses hot straight-line runs up to the horizon and steps
     the rest;
   - [Classic]: the horizon pinned at [min_int], so every step is hooked
     and nothing is fused.

   Both must produce byte-identical results — counters, outcome, memory
   image, cache state — so CI and the engine-equivalence property tests
   difference the machine's two definitions: the reference step and
   the fused traces with their static counter ledgers.  At a trap a fused
   trace's counters and caches are only partly updated, so a [Trapped]
   result keeps only the trap and is the same under either engine. *)

exception Sim_trap = Superblock.Sim_trap

(* Fault injection (soft-error model): one single-bit flip, applied just
   before the [at_instr]-th dynamic instruction executes.  Targets mirror
   the hardware state the paper's mechanism touches: register (slice)
   bits, memory bits, and the Δ redirect register. *)
type fault_target =
  | Flip_reg of int * int     (* register, bit 0-31 (bits 0-7 of byte k
                                 alias slice (r, k)) *)
  | Flip_mem of int * int     (* byte address, bit 0-7 *)
  | Flip_delta of int         (* bit of the Δ special register *)

type fault = { at_instr : int; target : fault_target }

(* Intermittent-power execution: run under a seeded outage trace with a
   checkpoint policy.  On an outage the machine rolls back to the last
   checkpoint (registers via [Checkpoint.saved], memory via the
   [Memimage] undo journal) and re-executes; [max_retries] consecutive
   restores without an intervening checkpoint degrade the policy to
   additionally checkpoint before every store, and twice that gives up
   with the [Livelock] outcome. *)
type power = {
  trace : Powertrace.t;
  policy : Checkpoint.policy;
  max_retries : int;
}

type engine = Classic | Jit

type config = {
  mode : Isa.mode;
  fuel : int;                 (* max dynamic instructions *)
  fault : fault option;       (* inject one bit flip during the run *)
  power : power option;       (* run under injected power failures *)
  engine : engine;            (* dispatch engine; identical results *)
}

let default_config =
  { mode = Isa.Bitspec; fuel = 1_000_000_000; fault = None; power = None;
    engine = Jit }

type result = {
  r0 : int64;
  outcome : Bs_support.Outcome.t;
  fault_applied : bool;
  ctr : Counters.t;
  icache : Cache.t;
  dcache : Cache.t;
  l2 : Cache.t;
  misspec_pcs : (int * int) list;
      (* (pc, count) per misspeculating instruction, sorted by pc;
         counts sum to [ctr.misspecs].  Resolve pcs to source sites
         through [Asm.program.srcmap]. *)
}

let trapped ~fault_applied t =
  { r0 = 0L; outcome = Bs_support.Outcome.Trapped t; fault_applied;
    ctr = Counters.create (); icache = Cache.l1i (); dcache = Cache.l1d ();
    l2 = Cache.l2 (); misspec_pcs = [] }

(* Pre-decoded per-PC flags, computed once per run, that the hooks read:
   a slice instruction traps in CLASSIC mode and is a pre-speculation
   checkpoint site; a store is a pre-store checkpoint site. *)
let meta_slice = 1
let meta_store = 2

let predecode (p : Bs_backend.Asm.program) : int array =
  Array.map
    (fun insn ->
      (if is_slice_insn insn then meta_slice else 0)
      lor match insn with STR _ | BSTRB _ -> meta_store | _ -> 0)
    p.Bs_backend.Asm.code

(* Architectural state between two steps: everything the next step can
   read but memory and the timing-only load-use latch.  [start] builds
   the entry state, [capture] takes one mid-run, and [resume] starts the
   Jit loop from one. *)
type arch = {
  a_instrs : int;          (* instructions executed so far *)
  a_misspecs : int;
  a_regs : int array;
  a_pc : int;              (* the next instruction *)
  a_delta : int;
  a_mode : Isa.mode;
  a_cmp_a : int;
  a_cmp_b : int;
  a_cmp_width8 : bool;
}

let capture (st : state) (ctr : Counters.t) =
  { a_instrs = ctr.Counters.instrs; a_misspecs = ctr.Counters.misspecs;
    a_regs = Array.copy st.regs; a_pc = st.pc; a_delta = st.delta;
    a_mode = st.mode; a_cmp_a = st.cmp_a; a_cmp_b = st.cmp_b;
    a_cmp_width8 = st.cmp_width8 }

(* The entry state: arguments pushed onto the image's stack (stack-args
   convention), SP below them, LR at the bootstrap HALT. *)
let start ~mode (p : Bs_backend.Asm.program) (mem : Memimage.t) ~entry
    ~(args : int64 list) =
  let entry_pc =
    match Hashtbl.find_opt p.Bs_backend.Asm.entries entry with
    | Some e -> e
    | None -> raise (Sim_trap (Bs_support.Outcome.Unknown_entry entry))
  in
  let sp_top = Memimage.size mem - 64 in
  let n = List.length args in
  let sp0 = sp_top - (4 * n) in
  List.iteri
    (fun k a -> Memimage.write mem ~width:32 (sp0 + (4 * k)) a)
    args;
  let regs = Array.make num_regs 0 in
  regs.(sp) <- sp0;
  regs.(lr) <- p.Bs_backend.Asm.halt_pc;
  { a_instrs = 0; a_misspecs = 0; a_regs = regs; a_pc = entry_pc;
    a_delta = p.Bs_backend.Asm.delta; a_mode = mode; a_cmp_a = 0;
    a_cmp_b = 0; a_cmp_width8 = false }

(* Run from [a] to the end, or until [at_stop] says stop.  The loop
   calls [at_stop] between two steps once [ctr.instrs] reaches
   [stop_at], and it returns the next stop count ([Some]) or ends the
   run ([None]; the flag in the result pair).  [on_dmiss] sees every D$
   miss. *)
let exec ~config ~on_dmiss ~stop_at ~at_stop (p : Bs_backend.Asm.program)
    (mem : Memimage.t) (a : arch) : result * bool =
  let t_start = Unix.gettimeofday () in
  let ctr = Counters.create () in
  ctr.Counters.instrs <- a.a_instrs;
  ctr.Counters.misspecs <- a.a_misspecs;
  let misspec_pc_counts : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let icache = Cache.l1i () and dcache = Cache.l1d () and l2 = Cache.l2 () in
  let st =
    { Superblock.regs = Array.copy a.a_regs; pc = a.a_pc; delta = a.a_delta;
      mode = a.a_mode; halted = false; cmp_a = a.a_cmp_a; cmp_b = a.a_cmp_b;
      cmp_width8 = a.a_cmp_width8; last_load_dest = -1 }
  in
  let cx =
    { Superblock.st; ctr; mem; icache; dcache; l2;
      pc_counts = misspec_pc_counts; prog = p; horizon = min_int; on_dmiss }
  in
  let meta = predecode p in
  let outcome = ref Bs_support.Outcome.Finished in
  let stopped = ref false in
  let fault_applied = ref false in
  let apply_fault () =
    match config.fault with
    | Some f when (not !fault_applied) && ctr.Counters.instrs >= f.at_instr
      -> (
        fault_applied := true;
        match f.target with
        | Flip_reg (r, b) -> st.regs.(r) <- mask32 (st.regs.(r) lxor (1 lsl b))
        | Flip_mem (addr, b) ->
            let v = Memimage.read mem ~width:8 addr in
            Memimage.write mem ~width:8 addr
              (Int64.logxor v (Int64.of_int (1 lsl b)))
        | Flip_delta b -> st.delta <- st.delta lxor (1 lsl b))
    | _ -> ()
  in
  (* --- intermittent-power machinery ------------------------------------ *)
  (* One capture buffer per run; capture and restore are allocation-free
     (the pre-store policy checkpoints on every store). *)
  let saved = Checkpoint.create ~num_regs in
  let restores_since_ckpt = ref 0 in
  let degraded = ref false in
  (* instr count at the last checkpoint or restore: re-executed (wasted)
     work at an outage is what ran since the last resume point, not since
     the checkpoint — consecutive strikes without an intervening
     checkpoint must not re-count earlier losses *)
  let resumed_at = ref 0 in
  (* net useful instrs captured by the last checkpoint.  A checkpoint
     only counts as progress — and only then resets the retry budget —
     if it snapshots a state further along than the previous one;
     re-checkpointing the same spot after a rollback must not. *)
  let last_ckpt_net = ref (-1) in
  let take_checkpoint () =
    ctr.Counters.checkpoint_bytes <-
      ctr.Counters.checkpoint_bytes
      + Checkpoint.cost_bytes ~num_regs ~dirty:(Memimage.journal_pending mem);
    Memimage.journal_commit mem;
    Array.blit st.regs 0 saved.Checkpoint.s_regs 0 num_regs;
    saved.Checkpoint.s_pc <- st.pc;
    saved.Checkpoint.s_delta <- st.delta;
    saved.Checkpoint.s_mode <- st.mode;
    saved.Checkpoint.s_cmp_a <- st.cmp_a;
    saved.Checkpoint.s_cmp_b <- st.cmp_b;
    saved.Checkpoint.s_cmp_width8 <- st.cmp_width8;
    saved.Checkpoint.s_last_load_dest <- st.last_load_dest;
    saved.Checkpoint.s_at_instrs <- ctr.Counters.instrs;
    resumed_at := ctr.Counters.instrs;
    (let net = ctr.Counters.instrs - ctr.Counters.reexec_instrs in
     if net > !last_ckpt_net then begin
       last_ckpt_net := net;
       restores_since_ckpt := 0
     end);
    ctr.Counters.checkpoints <- ctr.Counters.checkpoints + 1;
    stall_other ctr Checkpoint.checkpoint_cycles
  in
  let restore_checkpoint max_retries =
    ctr.Counters.restores <- ctr.Counters.restores + 1;
    ctr.Counters.reexec_instrs <-
      ctr.Counters.reexec_instrs + (ctr.Counters.instrs - !resumed_at);
    resumed_at := ctr.Counters.instrs;
    Memimage.journal_undo mem;
    Array.blit saved.Checkpoint.s_regs 0 st.regs 0 num_regs;
    st.pc <- saved.Checkpoint.s_pc;
    st.delta <- saved.Checkpoint.s_delta;
    st.mode <- saved.Checkpoint.s_mode;
    st.cmp_a <- saved.Checkpoint.s_cmp_a;
    st.cmp_b <- saved.Checkpoint.s_cmp_b;
    st.cmp_width8 <- saved.Checkpoint.s_cmp_width8;
    st.last_load_dest <- saved.Checkpoint.s_last_load_dest;
    stall_other ctr Checkpoint.restore_cycles;
    incr restores_since_ckpt;
    (* Livelock detection: repeated restores with no forward-progress
       checkpoint in between mean every outage precedes the next commit
       point (re-checkpointing the same spot does not count — see
       [last_ckpt_net]).  Degrade once to additionally checkpoint before
       every store; if even that cannot outrun the outages, give up. *)
    if !restores_since_ckpt > max_retries then
      if not !degraded then begin
        degraded := true;
        ctr.Counters.livelock_degrades <- ctr.Counters.livelock_degrades + 1
      end
      else if !restores_since_ckpt > 2 * max_retries then begin
        outcome := Bs_support.Outcome.Livelock;
        st.halted <- true
      end
  in
  (match config.power with
  | Some _ ->
      (* boot commit: entry state (arguments included) survives the
         first outage *)
      Memimage.journal_start mem;
      take_checkpoint ()
  | None -> ());
  (* checkpoint/outage policy evaluation for a hooked step *)
  let power_step m =
    match config.power with
    | None -> false
    | Some pw ->
        let want_ckpt =
          (match pw.policy with
          | Checkpoint.Interval n ->
              ctr.Counters.instrs - saved.Checkpoint.s_at_instrs >= n
          | Checkpoint.Pre_store -> m land meta_store <> 0
          | Checkpoint.Pre_speculation -> m land meta_slice <> 0)
          || (!degraded && m land meta_store <> 0)
        in
        if want_ckpt then take_checkpoint ();
        if Powertrace.fires pw.trace ~instrs:ctr.Counters.instrs ~pc:st.pc
        then begin
          restore_checkpoint pw.max_retries;
          true
        end
        else false
  in
  let bodies = Superblock.bodies cx in
  let ncode = Array.length bodies in
  let fuel = config.fuel in
  (* The event horizon: the instruction count at which the next step
     needs a hook.  That is the first of the fuel limit, the pending
     fault ([apply_fault] fires once [at_instr] is charged), the next
     stop, the next [Interval] checkpoint and the trace's next possible
     outage.  The Classic engine, pre-store and pre-speculation
     checkpoints, and a livelock-degraded run hook every step: their
     horizon is [min_int] for the rest of the run and is never
     recomputed. *)
  let fault_horizon =
    match config.fault with
    | Some f -> Int.max f.at_instr 1 - 1
    | None -> max_int
  in
  let next_stop = ref stop_at in
  let next_horizon () =
    let h =
      Int.min !next_stop
        (if !fault_applied then fuel else Int.min fuel fault_horizon)
    in
    match config.power with
    | None -> h
    | Some _ when !degraded -> min_int
    | Some { policy = Checkpoint.(Pre_store | Pre_speculation); _ } -> min_int
    | Some { policy = Checkpoint.Interval n; trace; _ } ->
        Int.min h
          (Int.min (saved.Checkpoint.s_at_instrs + n)
             (Powertrace.next_at trace))
  in
  cx.horizon <- (match config.engine with Jit -> next_horizon () | Classic -> min_int);
  (* a run hooked at every step never dispatches fused: skip the trace
     detection *)
  let dispatch =
    if cx.horizon = min_int then bodies else Superblock.install_jit cx bodies
  in
  let trap =
    try
      while not st.halted do
        let pc = st.pc in
        if pc < 0 || pc >= ncode then
          raise (Sim_trap (Bs_support.Outcome.Pc_out_of_range pc));
        if ctr.Counters.instrs < cx.horizon then begin
          (* below the horizon no hook can fire, and fused traces stop short
             of it: fetch, charge, one indirect call *)
          Superblock.fetch cx pc;
          ctr.Counters.instrs <- ctr.Counters.instrs + 1;
          ctr.Counters.cycles <- ctr.Counters.cycles + 1;
          st.pc <- (Array.unsafe_get dispatch pc) ()
        end
        else begin
          (* at the horizon: a stop sees the state between two steps; then
             the slice-mode check, the checkpoint/outage hook, fetch, charge
             and fuel, the fault hook, and the reference step *)
          if ctr.Counters.instrs = !next_stop then begin
            match at_stop st ctr with
            | Some n -> next_stop := n
            | None ->
                stopped := true;
                st.halted <- true
          end;
          let m = Array.unsafe_get meta pc in
          if st.halted then ()
          else if m land meta_slice <> 0 && st.mode = Isa.Classic then
            raise (Sim_trap Bs_support.Outcome.Classic_mode_slice)
          else if not (power_step m) then begin
            Superblock.fetch cx pc;
            ctr.Counters.instrs <- ctr.Counters.instrs + 1;
            ctr.Counters.cycles <- ctr.Counters.cycles + 1;
            if ctr.Counters.instrs > fuel then begin
              outcome := Bs_support.Outcome.Out_of_fuel;
              st.halted <- true
            end
            else begin
              if ctr.Counters.instrs > fault_horizon then apply_fault ();
              let nx = (Array.unsafe_get bodies pc) () in
              if not st.halted then st.pc <- nx
            end
          end;
          if cx.horizon <> min_int then cx.horizon <- next_horizon ()
        end
      done;
      None
    with
    | Sim_trap t -> Some t
    | Memimage.Fault m -> Some (Bs_support.Outcome.Memory_fault m)
  in
  if config.power <> None then Memimage.journal_stop mem;
  match trap with
  | Some t -> (trapped ~fault_applied:!fault_applied t, false)
  | None ->
      let misspec_pcs =
        List.sort compare
          (Hashtbl.fold (fun pc n acc -> (pc, n) :: acc) misspec_pc_counts [])
      in
      ctr.Counters.wall_ns <-
        int_of_float ((Unix.gettimeofday () -. t_start) *. 1e9);
      ( { r0 = Int64.of_int (st.regs.(0) land 0xFFFFFFFF); outcome = !outcome;
          fault_applied = !fault_applied; ctr; icache; dcache; l2;
          misspec_pcs },
        !stopped )

let run ?(config = default_config) p mem ~entry ~args =
  match start ~mode:config.mode p mem ~entry ~args with
  | exception Sim_trap t -> trapped ~fault_applied:false t
  | a ->
      fst
        (exec ~config ~on_dmiss:None ~stop_at:max_int
           ~at_stop:(fun _ _ -> None)
           p mem a)

let resume ~fuel ~fault ?on_dmiss ~stop_at at_stop p mem a =
  let config = { mode = a.a_mode; fuel; fault; power = None; engine = Jit } in
  match exec ~config ~on_dmiss ~stop_at ~at_stop p mem a with
  | _, true -> None
  | r, false -> Some r
