open Bs_support
open Bitspec

(* Engine equivalence and the memory-image correctness sweep.

   The machine is defined twice: the reference step
   ([Superblock.step]) and the trace-JIT's fused traces with their
   static counter ledgers.  The [Classic] engine runs every step
   through the reference step; [Jit] runs hot paths fused and the rest
   through the reference step.  So differencing the engines differences
   the two definitions: for any program, any input, any injected fault
   and any power trace, [Jit] must produce results byte-identical to
   [Classic] — return value, outcome, every activity counter,
   misspeculation attribution, cache hit/miss state and the final
   memory image.  ([Counters.wall_ns] is deliberately excluded from
   [Counters.to_assoc], so the comparison is host-speed-blind.)  A
   hand-assembled loop holding every fusible instruction form makes
   sure each form's ledger is compared, whatever the random programs
   happen to contain.

   Also covered here: the memory-image layout boundary (a layout ending
   exactly at [size] fits; one byte more faults, before anything is
   allocated), duplicate-global rejection (BS-IMG-01), and the undo
   journal's snapshot/restore semantics. *)

let other_engines = [ ("jit", Bs_sim.Machine.Jit) ]

(* One run's complete observable state.  A trap is part of [o_outcome];
   a trapped run reports no activity, so its counters, attribution and
   caches read empty. *)
type obs = {
  o_r0 : int64;
  o_outcome : string;
  o_ctr : (string * int) list;
  o_misspec : (int * int) list;
  o_caches : (string * int * int) list;
  o_mem : Bs_interp.Memimage.snapshot option;
}

(* Run [program] on [mem] and record everything observable. *)
let observe_run ~config program mem ~entry ~args =
  let open Bs_sim in
  let r = Machine.run ~config program mem ~entry ~args in
  { o_r0 = r.Machine.r0;
    o_outcome = Outcome.to_string r.Machine.outcome;
    o_ctr = Counters.to_assoc r.Machine.ctr;
    o_misspec = r.Machine.misspec_pcs;
    o_caches =
      List.map
        (fun (c : Cache.t) -> (c.Cache.name, c.Cache.hits, c.Cache.misses))
        [ r.Machine.icache; r.Machine.dcache; r.Machine.l2 ];
    o_mem = Some (Bs_interp.Memimage.snapshot mem) }

(* Run [c] on a fresh memory image under [engine].  [power] builds the
   power configuration per run — a Powertrace is stateful, so every
   engine must get its own (identically seeded) trace.  [setup] fills
   the image before the run; [mode] overrides the build's own. *)
let observe ?(fuel = 2_000_000) ?power ?fault ?mode ?(setup = ignore)
    (c : Driver.compiled) engine ~entry ~args =
  let mem = Bs_interp.Memimage.create c.Driver.ir in
  setup mem;
  let mode =
    match mode with
    | Some m -> m
    | None ->
        if c.Driver.config.Driver.arch = Driver.Bitspec_arch then
          Bs_isa.Isa.Bitspec
        else Bs_isa.Isa.Classic
  in
  let power = Option.map (fun mk -> mk c) power in
  observe_run
    ~config:{ Bs_sim.Machine.mode; fuel; fault; power; engine }
    c.Driver.program mem ~entry ~args

let rec pair_diff xs ys =
  match (xs, ys) with
  | (k, u) :: xs', (_, v) :: ys' ->
      if u <> v then Printf.sprintf "%s = %d vs %d" k u v
      else pair_diff xs' ys'
  | _ -> "counter lists differ in length"

(* First component where two observations disagree, or [None]. *)
let first_diff a b =
  if a.o_outcome <> b.o_outcome then
    Some (Printf.sprintf "outcome: %s vs %s" a.o_outcome b.o_outcome)
  else if a.o_r0 <> b.o_r0 then
    Some (Printf.sprintf "r0: %Ld vs %Ld" a.o_r0 b.o_r0)
  else if a.o_ctr <> b.o_ctr then Some ("counter " ^ pair_diff a.o_ctr b.o_ctr)
  else if a.o_misspec <> b.o_misspec then Some "misspec_pcs attribution"
  else if a.o_caches <> b.o_caches then
    Some
      (String.concat "; "
         (List.map2
            (fun (n, h, m) (_, h', m') ->
              Printf.sprintf "%s hits %d/%d misses %d/%d" n h h' m m')
            a.o_caches b.o_caches))
  else
    match (a.o_mem, b.o_mem) with
    | Some x, Some y when not (Bs_interp.Memimage.snapshot_equal x y) ->
        Some "final memory image"
    | _ -> None

(* Difference [jit] against [classic] on one compiled
   program; returns true or fail_reportf's with the first divergence. *)
let check_compiled ?fuel ?power ?fault ?setup what (c : Driver.compiled)
    ~entry ~args =
  let reference =
    observe ?fuel ?power ?fault ?setup c Bs_sim.Machine.Classic ~entry ~args
  in
  List.iter
    (fun (name, engine) ->
      let o = observe ?fuel ?power ?fault ?setup c engine ~entry ~args in
      match first_diff reference o with
      | None -> ()
      | Some d ->
          QCheck.Test.fail_reportf "%s: %s diverges from classic on %s" what
            name d)
    other_engines;
  true

let compile_seed ?size seed =
  let source = Bs_fuzz.Gen.program ?size seed in
  match
    Driver.try_compile ~config:Driver.bitspec_config ~source
      ~train:[ (Bs_fuzz.Gen.entry, Bs_fuzz.Gen.train_args) ] ()
  with
  | Ok c -> Some c
  | Error _ -> None (* input that fails to compile: vacuous *)

let check_seed seed =
  match compile_seed seed with
  | None -> true
  | Some c ->
      check_compiled
        (Printf.sprintf "seed %d" seed)
        c ~entry:Bs_fuzz.Gen.entry
        ~args:[ Bs_fuzz.Gen.entry_arg seed ]

let prop_engines_agree =
  QCheck.Test.make ~name:"engines are byte-identical on random programs"
    ~count:100
    QCheck.(int_bound 1_000_000)
    check_seed

(* a few pinned seeds so failures reproduce deterministically in CI *)
let test_pinned_seeds () =
  List.iter
    (fun seed ->
      Alcotest.(check bool)
        (Printf.sprintf "seed %d" seed)
        true (check_seed seed))
    [ 1; 2; 3; 42; 1234; 99999; 424242; 7777777 ]

(* --- under an injected power trace -------------------------------------- *)

(* Under power failures the JIT fuses only up to the next possible
   outage or checkpoint and runs that step with its hooks; the results
   must still be byte-identical — including restore counts, re-executed
   instructions and the journal-rolled memory image. *)
let check_power_seed seed =
  match compile_seed ~size:8 seed with
  | None -> true
  | Some c ->
      let open Bs_sim in
      let hot_pcs = Campaign.hot_pcs_of c.Driver.program in
      let dist =
        match seed mod 3 with
        | 0 -> Powertrace.Periodic (50 + (seed mod 400))
        | 1 -> Powertrace.Exponential (float_of_int (100 + (seed mod 900)))
        | _ -> Powertrace.Adversarial { every = 60 + (seed mod 300) }
      in
      let policy =
        match (seed / 3) mod 3 with
        | 0 -> Checkpoint.Interval (25 + (seed mod 200))
        | 1 -> Checkpoint.Pre_store
        | _ -> Checkpoint.Pre_speculation
      in
      let power _ =
        (* fresh (identically seeded) trace per engine run: the trace
           object advances as the machine consumes it *)
        { Machine.trace =
            Powertrace.create ~seed:(Int64.of_int (seed + 1)) ~hot_pcs dist;
          policy;
          max_retries = 6 }
      in
      check_compiled ~power
        (Printf.sprintf "power seed %d (%s)" seed
           (Checkpoint.policy_name policy))
        c ~entry:Bs_fuzz.Gen.entry
        ~args:[ Bs_fuzz.Gen.entry_arg seed ]

let prop_engines_agree_power =
  QCheck.Test.make ~name:"engines are byte-identical under power traces"
    ~count:40
    QCheck.(int_bound 1_000_000)
    check_power_seed

(* --- under fault injection and short fuel --------------------------------- *)

(* The other events that set the JIT's horizon: a bit flip (register,
   memory or Δ, due at any instruction of the fault-free run), a fuel
   budget that runs out mid-run, and a flip under [Interval] power,
   where the fault, the checkpoints and the outages all bound the fused
   traces. *)
let check_fault_seed seed =
  match compile_seed seed with
  | None -> true
  | Some c -> (
      let open Bs_sim in
      let entry = Bs_fuzz.Gen.entry
      and args = [ Bs_fuzz.Gen.entry_arg seed ] in
      let golden = observe c Machine.Classic ~entry ~args in
      match List.assoc_opt "instrs" golden.o_ctr with
      | Some g when golden.o_outcome = Outcome.to_string Outcome.Finished ->
          let what = Printf.sprintf "seed %d (%d instrs)" seed g in
          let rng = Rng.create (Int64.of_int (seed + 7)) in
          let mem_hi =
            Bs_interp.Memimage.size (Bs_interp.Memimage.create c.Driver.ir)
            - 1
          in
          let gen () =
            Faultinject.gen_fault rng ~max_instr:g
              ~mem_lo:Bs_interp.Memimage.globals_base ~mem_hi
          in
          let faults = List.init 3 (fun _ -> gen ()) in
          List.for_all
            (fun fault ->
              check_compiled ~fuel:(4 * g) ~fault
                (what ^ ": " ^ Faultinject.describe_fault fault)
                c ~entry ~args)
            faults
          && List.for_all
               (fun fuel ->
                 check_compiled ~fuel
                   (Printf.sprintf "%s: fuel %d" what fuel)
                   c ~entry ~args)
               [ 1; g / 3; g - 1 ]
          &&
          let fault = gen () in
          let hot_pcs = Campaign.hot_pcs_of c.Driver.program in
          let policy = Checkpoint.Interval (25 + (seed mod 200)) in
          let dist =
            Powertrace.Exponential (float_of_int (100 + (seed mod 900)))
          in
          let power _ =
            { Machine.trace =
                Powertrace.create ~seed:(Int64.of_int (seed + 3)) ~hot_pcs
                  dist;
              policy;
              max_retries = 6 }
          in
          check_compiled ~fuel:(40 * g) ~fault ~power
            (Printf.sprintf "%s: %s under %s power" what
               (Faultinject.describe_fault fault)
               (Checkpoint.policy_name policy))
            c ~entry ~args
      | _ -> true (* the fault-free run does not finish: vacuous *))

let prop_engines_agree_fault =
  QCheck.Test.make
    ~name:"engines are byte-identical under faults and short fuel" ~count:40
    QCheck.(int_bound 1_000_000)
    check_fault_seed

(* The BITSPEC build of a workload and its test input. *)
let kernel name =
  let w = Bs_workloads.Registry.find name in
  let c = Experiment.compile_workload Driver.bitspec_config w in
  let input = w.Bs_workloads.Workload.test in
  ( c,
    input.Bs_workloads.Workload.setup c.Driver.ir,
    w.Bs_workloads.Workload.entry,
    input.Bs_workloads.Workload.args )

(* Real kernels spend their time in long fused loop traces, so every
   event lands inside one at some iteration: the traces must hand back
   exactly at the horizon, from their entry guard and their loop-back
   guard alike. *)
let test_pinned_kernel_events () =
  let open Bs_sim in
  List.iter
    (fun name ->
      let c, setup, entry, args = kernel name in
      let g =
        let o = observe ~setup c Machine.Jit ~entry ~args in
        match List.assoc_opt "instrs" o.o_ctr with
        | Some g when o.o_outcome = Outcome.to_string Outcome.Finished -> g
        | _ -> Alcotest.failf "%s: the fault-free run traps" name
      in
      let power _ =
        { Machine.trace =
            Powertrace.create ~seed:5L (Powertrace.Exponential 3000.0);
          policy = Checkpoint.Interval 500;
          max_retries = 8 }
      in
      let fault =
        { Machine.at_instr = g / 2; target = Machine.Flip_reg (4, 3) }
      in
      let check ?fuel ?fault ?power what =
        Alcotest.(check bool)
          (Printf.sprintf "%s: %s" name what)
          true
          (check_compiled ?fuel ?fault ?power ~setup what c ~entry ~args)
      in
      List.iter
        (fun fuel -> check ~fuel (Printf.sprintf "fuel %d" fuel))
        [ g / 3; (g / 3) + 1; (g / 3) + 2; g - 1 ];
      check ~fuel:(4 * g) ~fault "register flip at g/2";
      check ~fuel:(40 * g) ~power "interval:500 under exp:3000";
      check ~fuel:(40 * g) ~fault ~power "flip under interval:500 power")
    [ "CRC32"; "bitcount" ]

(* A step that uses the slice extension in CLASSIC mode traps before it
   is fetched or charged, so when such a step is also the first past the
   fuel budget, the trap wins.  On the CRC32 BITSPEC build run in
   CLASSIC mode the 26th instruction is the first slice operation:
   fuel 24 runs out first, 25 and 26 trap, under either engine. *)
let test_classic_slice_at_fuel_limit () =
  let c, setup, entry, args = kernel "CRC32" in
  let run fuel engine =
    (observe ~fuel ~mode:Bs_isa.Isa.Classic ~setup c engine ~entry ~args)
      .o_outcome
  in
  List.iter
    (fun (fuel, expected) ->
      List.iter
        (fun (name, engine) ->
          Alcotest.(check string)
            (Printf.sprintf "fuel %d under %s" fuel name)
            expected (run fuel engine))
        [ ("classic", Bs_sim.Machine.Classic); ("jit", Bs_sim.Machine.Jit) ])
    [ (24, Outcome.to_string Outcome.Out_of_fuel);
      (25, Outcome.to_string (Outcome.Trapped Outcome.Classic_mode_slice));
      (26, Outcome.to_string (Outcome.Trapped Outcome.Classic_mode_slice)) ]

(* --- every instruction form, fused vs stepped ---------------------------- *)

(* A hand-assembled loop whose body holds every form a trace can fuse,
   so the fused ledgers are differenced against the reference step form
   by form: each ALU op with a register and an immediate operand, MUL,
   both DIVs, CMP, CSET, every LDR width and sign, every STR width,
   SXT/UXT of every width, each slice ALU op with a slice and an
   immediate operand, BCMPS, BLDRS/BLDRB/BSTRB with an offset and a
   slice index, BEXT, BTRN, BMOV, BMOVI and NOP.  Besides: a load used at
   once, spill/copy provenance tags, an interior B, a forward BC on its
   fall-through direction and a loop-closing BC followed on its taken
   direction.  With k = i land 7, the slice forms misspeculate at
   k = 0, 3, 4, 5, 6 and 7, and each Δ slot jumps back to the
   instruction after its misspeculating one; at k = 1 and 2 the whole
   iteration runs fused, and the last two iterations are those, so the
   loop leaves with deferred iterations to settle. *)

let every_form_iterations = 43

let every_form_program () : Bs_backend.Asm.program =
  let open Bs_isa.Isa in
  let sl r b = { sl_reg = r; sl_byte = b } in
  let i ?(prov = PNormal) insn = `I (prov, fun _ -> insn) in
  let jump mk = `I (PNormal, mk) in
  let label l = `L l in
  let items =
    [ i (MOVW (7, 0x1000));                   (* r7: data base *)
      i (MOVW (1, 0));                        (* r1: iteration i *)
      i (MOVW (2, 0));                        (* r2: accumulator *)
      i (MOVW (12, 0x5A5A));
      i (MOVT (12, 0xA5A5));                  (* r12: a negative word *)
      label "head";
      i (ALU (OpAnd, 8, 1, Imm 7));           (* r8: k *)
      i (ALU (OpLsl, 9, 8, Imm 2));
      i (ALU (OpAdd, 9, 9, Reg 7));           (* r9: base + 4k *)
      i ~prov:PSpillLoad (LDR (W32, Unsigned, 3, 9, 0));
      i (ALU (OpAdd, 2, 2, Reg 3));           (* load-use stall *)
      i (LDR (W32, Signed, 3, 9, 0));
      i (LDR (W16, Signed, 4, 9, 0x40));
      i (LDR (W16, Unsigned, 5, 9, 0x40));
      i (LDR (W8, Signed, 6, 9, 0x80));
      i (LDR (W8, Unsigned, 10, 9, 0x81));
      i (ALU (OpSub, 3, 3, Reg 4));
      i (ALU (OpAnd, 4, 12, Reg 5));
      i (ALU (OpOrr, 5, 6, Reg 10));
      i (ALU (OpEor, 2, 2, Reg 3));
      i (ALU (OpLsl, 3, 12, Reg 8));
      i (ALU (OpLsr, 6, 12, Reg 8));
      i (ALU (OpAsr, 10, 12, Reg 8));
      i (ALU (OpAdd, 2, 2, Reg 4));
      i (ALU (OpEor, 2, 2, Reg 5));
      i (ALU (OpAdd, 2, 2, Reg 3));
      i (ALU (OpEor, 2, 2, Reg 6));
      i (ALU (OpAdd, 2, 2, Reg 10));
      i (ALU (OpAdd, 3, 1, Imm 3));
      i (ALU (OpSub, 3, 3, Imm 1));
      i (ALU (OpAnd, 3, 3, Imm 0xFF));
      i (ALU (OpOrr, 3, 3, Imm 0x100));
      i (ALU (OpEor, 3, 3, Imm 0x55));
      i (ALU (OpLsl, 4, 3, Imm 3));
      i (ALU (OpLsr, 4, 4, Imm 1));
      i (ALU (OpAsr, 5, 12, Imm 4));
      i (ALU (OpAdd, 2, 2, Reg 4));
      i (ALU (OpEor, 2, 2, Reg 5));
      i (MUL (3, 2, 12));
      i (ALU (OpAdd, 4, 8, Imm 1));
      i (DIV (Unsigned, 5, 3, 4));
      i (DIV (Signed, 6, 12, 4));
      i (ALU (OpAdd, 2, 2, Reg 5));
      i (ALU (OpAdd, 2, 2, Reg 6));
      i (CMP (8, Imm 3));
      i (CSET (CUlt, 3));
      i (CMP (4, Reg 8));
      i (CSET (CSgt, 4));
      i (ALU (OpAdd, 2, 2, Reg 3));
      i (ALU (OpAdd, 2, 2, Reg 4));
      i (SXT (W8, 3, 6));
      i (SXT (W16, 4, 12));
      i (SXT (W32, 5, 2));
      i (UXT (W8, 6, 12));
      i (UXT (W16, 10, 12));
      i ~prov:PCopy (MOV (11, 2));
      i (UXT (W32, 0, 11));
      i ~prov:PSpillStore (STR (W32, 2, 9, 0x100));
      i (STR (W16, 3, 9, 0x120));
      i (STR (W8, 4, 9, 0x140));
      i (ALU (OpEor, 2, 2, Reg 5));
      i (ALU (OpAdd, 2, 2, Reg 6));
      i (ALU (OpEor, 2, 2, Reg 10));
      i (ALU (OpAdd, 2, 2, Reg 0));
      (* an interior jump over a poisoned slot *)
      jump (fun at -> B (at "skip"));
      i (MOVW (2, 0xDEAD));
      label "skip";
      (* a forward conditional, taken at k = 7 *)
      i (CMP (8, Imm 7));
      jump (fun at -> BC (CEq, at "fwd"));
      i (ALU (OpEor, 2, 2, Imm 0x77));
      i NOP;
      label "fwd";
      (* the slice extension *)
      i (ALU (OpLsl, 4, 8, Imm 5));           (* slice (4,0) = 32k *)
      i (ALU (OpLsl, 6, 8, Imm 6));           (* slice (6,0) = 64k mod 256 *)
      i (BMOVI (sl 5 0, 0x50));
      i (BMOVI (sl 5 1, 0x10));
      i (BALU (BAdd, sl 10 0, sl 4 0, BImm 0x30));     (* Δ at k = 7 *)
      i ~prov:PCopy (BALU (BAdd, sl 10 1, sl 6 0, Sl (sl 5 0)));
                                                       (* Δ at k = 3, 7 *)
      i (BALU (BSub, sl 11 0, sl 4 0, BImm 0x10));     (* Δ at k = 0 *)
      i (BALU (BSub, sl 11 1, sl 6 0, Sl (sl 5 1)));   (* Δ at k = 0, 4 *)
      i (BALU (BAnd, sl 3 0, sl 12 0, Sl (sl 4 0)));
      i (BALU (BAnd, sl 3 1, sl 12 1, BImm 0x3C));
      i (BALU (BOrr, sl 3 2, sl 4 0, Sl (sl 5 1)));
      i (BALU (BOrr, sl 3 3, sl 6 0, BImm 0x81));
      i (BALU (BEor, sl 0 0, sl 12 2, Sl (sl 4 0)));
      i (BALU (BEor, sl 0 1, sl 12 3, BImm 0xFF));
      i (ALU (OpEor, 2, 2, Reg 3));
      i (ALU (OpAdd, 2, 2, Reg 0));
      i (ALU (OpEor, 2, 2, Reg 10));
      i (ALU (OpAdd, 2, 2, Reg 11));
      i (BCMPS (sl 4 0, BImm 0x60));
      i (CSET (CUgt, 3));
      i (BCMPS (sl 6 0, Sl (sl 5 0)));
      i (CSET (CSlt, 10));
      i (BEXT (Signed, 5, sl 12 0));
      i (BEXT (Unsigned, 6, sl 12 1));
      i (ALU (OpAdd, 2, 2, Reg 3));
      i (ALU (OpAdd, 2, 2, Reg 10));
      i (ALU (OpEor, 2, 2, Reg 5));
      i (ALU (OpAdd, 2, 2, Reg 6));
      i (BLDRS (sl 11 0, 9, BOff 0x20));               (* Δ at k = 5 *)
      i (MOVW (0, 0x1200));
      i (BLDRS (sl 11 1, 0, BIdx (sl 4 0)));           (* Δ at k = 5 *)
      i ~prov:PSpillLoad (BLDRB (sl 10 2, 9, BOff 0x80));
      i (BEXT (Unsigned, 3, sl 10 2));                 (* load-use stall *)
      i (BLDRB (sl 10 3, 0, BIdx (sl 8 0)));
      i (CMP (8, Imm 6));
      i (CSET (CEq, 5));
      i (ALU (OpLsl, 5, 5, Imm 8));
      i (ALU (OpAdd, 5, 5, Reg 4));
      i ~prov:PCopy (BTRN (sl 11 2, 5));               (* Δ at k = 6 *)
      i (BMOV (sl 11 3, sl 10 3));
      i (ALU (OpAdd, 2, 2, Reg 3));
      i (ALU (OpEor, 2, 2, Reg 10));
      i (ALU (OpAdd, 2, 2, Reg 11));
      i ~prov:PSpillStore (BSTRB (sl 2 0, 9, BOff 0x160));
      i (MOVW (0, 0x1300));
      i (BSTRB (sl 2 1, 0, BIdx (sl 8 0)));
      (* i += 1, and the backend's loop-continue idiom *)
      i (ALU (OpAdd, 1, 1, Imm 1));
      i (CMP (1, Imm every_form_iterations));
      jump (fun at -> BC (CUlt, at "cont"));
      jump (fun at -> B (at "exit"));
      label "cont";
      i NOP;
      jump (fun at -> B (at "head"));
      label "exit";
      i (MOV (0, 2));
      i HALT ]
  in
  let labels = Hashtbl.create 8 in
  let n =
    List.fold_left
      (fun pc -> function
        | `L l ->
            Hashtbl.replace labels l pc;
            pc
        | `I _ -> pc + 1)
      0 items
  in
  (* the Δ slots follow the code; unused ones halt *)
  let delta = n in
  let code = Array.make (2 * n) HALT and prov = Array.make (2 * n) PNormal in
  ignore
    (List.fold_left
       (fun pc -> function
         | `L _ -> pc
         | `I (p, mk) ->
             code.(pc) <- mk (Hashtbl.find labels);
             prov.(pc) <- p;
             if can_misspeculate code.(pc) then code.(pc + delta) <- B (pc + 1);
             pc + 1)
       0 items);
  { Bs_backend.Asm.code;
    prov;
    srcmap = Array.make (2 * n) None;
    entries =
      (let t = Hashtbl.create 1 in
       Hashtbl.replace t "main" 0;
       t);
    delta;
    halt_pc = n - 1;
    handler_pcs = Hashtbl.create 1 }

(* The tables the loop reads, indexed by k: the two BLDRS sources hold a
   word wider than a byte at k = 5 only. *)
let every_form_data mem =
  let w = Bs_interp.Memimage.write_int mem in
  for k = 0 to 7 do
    w ~width:32 (0x1000 + (4 * k)) ((0x01020304 * (k + 1)) land 0xFFFFFFFF);
    w ~width:32 (0x1020 + (4 * k)) (if k = 5 then 0x180 else (17 * k) + 3);
    w ~width:16 (0x1040 + (4 * k)) ((0x2345 * (k + 1)) land 0xFFFF);
    w ~width:8 (0x1080 + (4 * k)) (((0x37 * k) + 0x41) land 0xFF);
    w ~width:8 (0x1081 + (4 * k)) (((0x59 * k) + 0x93) land 0xFF);
    w ~width:32 (0x1200 + (32 * k)) (if k = 5 then 0x2A5 else k + 1)
  done

let every_form_mem () =
  let mem =
    Bs_interp.Memimage.create ~size:65536 { Bs_ir.Ir.funcs = []; globals = [] }
  in
  every_form_data mem;
  mem

let run_every_form ?(fuel = 1_000_000) ?fault ?power p engine =
  observe_run
    ~config:{ Bs_sim.Machine.mode = Bs_isa.Isa.Bitspec; fuel; fault; power; engine }
    p (every_form_mem ()) ~entry:"main" ~args:[]

let test_every_form_fused_vs_stepped () =
  let open Bs_sim in
  let p = every_form_program () in
  let run ?fuel engine = run_every_form ?fuel p engine in
  let reference = run Machine.Classic in
  (* the loop keeps its coverage: it finishes, and every misspeculating
     form fires on some iterations but not all *)
  Alcotest.(check string) "finishes"
    (Outcome.to_string Outcome.Finished)
    reference.o_outcome;
  Array.iteri
    (fun pc insn ->
      if Bs_isa.Isa.can_misspeculate insn then
        let n =
          Option.value ~default:0 (List.assoc_opt pc reference.o_misspec)
        in
        if n = 0 || n >= every_form_iterations then
          Alcotest.failf "pc %d misspeculates on %d of %d iterations" pc n
            every_form_iterations)
    p.Bs_backend.Asm.code;
  let g = List.assoc "instrs" reference.o_ctr in
  List.iter
    (fun fuel ->
      match first_diff (run ~fuel Machine.Classic) (run ~fuel Machine.Jit) with
      | None -> ()
      | Some d -> Alcotest.failf "fuel %d: jit diverges from classic on %s" fuel d)
    [ g; g / 2; (g / 2) + 1; g - 1 ]

(* A hook at every position of the every-form loop's trace.  The fused
   trace runs up to the event horizon and leaves through a cut exit at
   the step that needs the hook, so the hooked step must find exactly
   the state stepping leaves: every counter flushed, the deferred
   same-line fetch hits replayed, the load-use latch of the step before.
   The last two iterations (k = 1, 2) run whole on the loop's trace: one
   pass entered from the dispatch loop, and one reached through its
   loop-back with an iteration deferred.  A fuel limit, a register flip
   and an interval checkpoint each land on every step of both
   iterations, so each hook cuts the trace at every position of both
   kinds of pass, and the two engines must agree.  (A fuel limit ends
   the run before the hooked step executes; the flip and the checkpoint
   run it, so its load-use hazard reads the latch the cut left.) *)
let test_every_form_hook_at_every_position () =
  let open Bs_sim in
  let p = every_form_program () in
  let code = p.Bs_backend.Asm.code in
  (* the loop closes with [B head] two slots before the HALT *)
  let head =
    match code.(p.Bs_backend.Asm.halt_pc - 2) with
    | Bs_isa.Isa.B t -> t
    | _ -> Alcotest.fail "every-form loop: no closing jump"
  in
  (* the instruction count at which each iteration starts, from a run
     stopped before every step *)
  let starts = ref [] in
  let mem = every_form_mem () in
  let a =
    Machine.start ~mode:Bs_isa.Isa.Bitspec p mem ~entry:"main" ~args:[]
  in
  let final =
    Machine.resume ~fuel:1_000_000 ~fault:None ~stop_at:0
      (fun st ctr ->
        let n = ctr.Counters.instrs in
        if st.Superblock.pc = head then starts := n :: !starts;
        Some (n + 1))
      p mem a
  in
  let g =
    match final with
    | Some r -> r.Machine.ctr.Counters.instrs
    | None -> Alcotest.fail "every-form loop: the stepped run stopped"
  in
  let starts = Array.of_list (List.rev !starts) in
  Alcotest.(check int) "iterations" every_form_iterations (Array.length starts);
  let from = starts.(every_form_iterations - 2) in
  (* an outage trace whose first outage lies far past the run: the
     interval checkpoint is the only power hook (built per run: a trace
     is stateful) *)
  let power n =
    { Machine.trace = Powertrace.create ~seed:1L (Powertrace.Exponential 1e12);
      policy = Checkpoint.Interval n; max_retries = 8 }
  in
  let agree what mk =
    match first_diff (mk Machine.Classic) (mk Machine.Jit) with
    | None -> ()
    | Some d -> Alcotest.failf "%s: jit diverges from classic on %s" what d
  in
  for c = from to g - 1 do
    agree (Printf.sprintf "fuel %d" c) (fun e -> run_every_form ~fuel:c p e);
    agree
      (Printf.sprintf "register flip before instruction %d" (c + 1))
      (fun e ->
        run_every_form
          ~fault:{ Machine.at_instr = c + 1; target = Flip_reg (2, c land 31) }
          p e);
    agree (Printf.sprintf "checkpoint at instruction %d" c) (fun e ->
        run_every_form ~power:(power c) p e)
  done

(* --- corpus reproducers are engine-invariant ---------------------------- *)

(* Every reproducer in test/corpus/ gets the full oracle treatment under
   each engine; the rendered verdict (bucket, details, values) must not
   depend on the engine.  This differences the engines through the whole
   compile-and-compare pipeline, power reproducers included. *)
let test_corpus_engine_invariant () =
  let files = Bs_fuzz.Corpus.list_dir "corpus" in
  Alcotest.(check bool) "corpus is not empty" true (files <> []);
  let engines =
    [ ("classic", Bs_sim.Machine.Classic); ("jit", Bs_sim.Machine.Jit) ]
  in
  List.iter
    (fun path ->
      match Bs_fuzz.Corpus.load path with
      | None, _ -> Alcotest.failf "%s: no metadata header" path
      | Some m, source ->
          let describe engine =
            let train =
              [ (m.Bs_fuzz.Corpus.entry, m.Bs_fuzz.Corpus.train) ]
            in
            match m.Bs_fuzz.Corpus.power with
            | Some p ->
                Bs_fuzz.Oracle.describe_power
                  (Bs_fuzz.Oracle.run_power ~train ~engine ~source
                     ~entry:m.Bs_fuzz.Corpus.entry ~args:m.Bs_fuzz.Corpus.args
                     ~power:p ())
            | None ->
                Bs_fuzz.Oracle.describe
                  (Bs_fuzz.Oracle.run ?plant:m.Bs_fuzz.Corpus.fault ~train
                     ~engine ~source ~entry:m.Bs_fuzz.Corpus.entry
                     ~args:m.Bs_fuzz.Corpus.args ())
          in
          let expected = describe Bs_sim.Machine.Classic in
          List.iter
            (fun (name, engine) ->
              Alcotest.(check string)
                (Printf.sprintf "%s under %s" (Filename.basename path) name)
                expected (describe engine))
            (List.tl engines))
    files

(* --- simulated_mips ------------------------------------------------------ *)

let test_simulated_mips () =
  let source =
    "u32 f(u32 p) { u32 s; s = 0; while (p != 0) { s = s + p; p = p - 1; } \
     return s; }"
  in
  let c =
    Driver.compile ~config:Driver.bitspec_config ~source
      ~train:[ ("f", [ 17L ]) ] ()
  in
  let r = Driver.run_machine c ~entry:"f" ~args:[ 200_000L ] in
  let ctr = r.Bs_sim.Machine.ctr in
  Alcotest.(check bool) "run finished" true
    (r.Bs_sim.Machine.outcome = Outcome.Finished);
  Alcotest.(check bool) "wall clock measured" true
    (ctr.Bs_sim.Counters.wall_ns > 0);
  Alcotest.(check bool) "simulated_mips positive" true
    (Bs_sim.Counters.simulated_mips ctr > 0.0);
  (* wall_ns is host noise — it must stay out of the deterministic
     counter rendering that jobs-invariance smokes byte-compare *)
  Alcotest.(check bool) "wall_ns not in to_assoc" false
    (List.mem_assoc "wall_ns" (Bs_sim.Counters.to_assoc ctr))

(* --- memory-image layout boundary ---------------------------------------- *)

let bytes_global name count =
  { Bs_ir.Ir.gname = name; elem_width = 8; count; ginit = [||] }

let test_layout_boundary () =
  let open Bs_interp in
  let m g = { Bs_ir.Ir.funcs = []; globals = [ g ] } in
  let fit = Memimage.globals_base + 64 in
  (* a layout ending exactly at [size] fits *)
  let img = Memimage.create ~size:fit (m (bytes_global "g" 64)) in
  Alcotest.(check int) "globals_end = size" fit img.Memimage.globals_end;
  Memimage.write_int img ~width:8 (fit - 1) 0xAB;
  Alcotest.(check int) "last byte addressable" 0xAB
    (Memimage.read_int img ~width:8 (fit - 1));
  (* one byte more must fault *)
  (match Memimage.create ~size:fit (m (bytes_global "g" 65)) with
  | exception Memimage.Fault _ -> ()
  | _ -> Alcotest.fail "65 bytes in a 64-byte budget must fault");
  (* initialisers on the exact-fit layout land intact *)
  let init = { (bytes_global "h" 4) with Bs_ir.Ir.ginit = [| 1L; 2L; 3L; 4L |] } in
  let img2 =
    Memimage.create ~size:(Memimage.globals_base + 4) (m init)
  in
  let base = Memimage.addr_of img2 "h" in
  Alcotest.(check int) "last initialiser applied" 4
    (Memimage.read_int img2 ~width:8 (base + 3))

let test_duplicate_global () =
  let open Bs_interp in
  let m =
    { Bs_ir.Ir.funcs = [];
      globals = [ bytes_global "twice" 8; bytes_global "twice" 8 ] }
  in
  match Memimage.create ~size:65536 m with
  | exception Memimage.Layout_error d ->
      Alcotest.(check string) "diagnostic code" "BS-IMG-01" d.Diag.code;
      Alcotest.(check bool) "names the global" true
        (Str_exists.contains d.Diag.message "twice")
  | _ -> Alcotest.fail "duplicate globals must raise Layout_error"

(* --- journal / snapshot / restore semantics ------------------------------ *)

(* Random write workloads over the journal: an undo rolls back to the
   commit point; a [restore] both reinstates a snapshot's contents and
   disarms the journal (its entries describe overwritten contents that no
   longer exist). *)
let prop_journal_restore =
  QCheck.Test.make
    ~name:"journal undo and snapshot restore are exact and disarm correctly"
    ~count:50
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let open Bs_interp in
      let rng = Rng.create (Int64.of_int (seed + 31337)) in
      let img =
        Memimage.create ~size:4096 { Bs_ir.Ir.funcs = []; globals = [] }
      in
      let scribble () =
        for _ = 1 to 1 + (seed mod 40) do
          let a =
            Int64.to_int (Int64.logand (Rng.next rng) 0x7FFL) land 0x7FC
          in
          let v = Int64.to_int (Int64.logand (Rng.next rng) 0xFFFFFFFFL) in
          Memimage.write_int img ~width:32 a v
        done
      in
      scribble ();
      let s0 = Memimage.snapshot img in
      (* 1. armed journal, more writes, undo -> exactly the commit point *)
      Memimage.journal_start img;
      scribble ();
      let dirty = Memimage.journal_pending img in
      Memimage.journal_undo img;
      if not (Memimage.snapshot_equal s0 (Memimage.snapshot img)) then
        QCheck.Test.fail_reportf "seed %d: journal_undo missed bytes" seed;
      if dirty < 0 then QCheck.Test.fail_reportf "negative dirty count";
      (* 2. restore reinstates the snapshot AND disarms the journal *)
      scribble ();
      Memimage.restore img s0;
      if img.Memimage.j_on then
        QCheck.Test.fail_reportf "seed %d: restore left the journal armed"
          seed;
      if img.Memimage.j_len <> 0 then
        QCheck.Test.fail_reportf "seed %d: restore left journal entries" seed;
      if not (Memimage.snapshot_equal s0 (Memimage.snapshot img)) then
        QCheck.Test.fail_reportf "seed %d: restore is not exact" seed;
      (* 3. the restored image re-journals from scratch *)
      Memimage.journal_start img;
      scribble ();
      Memimage.journal_undo img;
      Memimage.snapshot_equal s0 (Memimage.snapshot img))

let suite =
  [ Alcotest.test_case "pinned engine-equivalence seeds" `Quick
      test_pinned_seeds;
    QCheck_alcotest.to_alcotest prop_engines_agree;
    QCheck_alcotest.to_alcotest prop_engines_agree_power;
    QCheck_alcotest.to_alcotest prop_engines_agree_fault;
    Alcotest.test_case "pinned kernels agree under faults, power and fuel"
      `Quick test_pinned_kernel_events;
    Alcotest.test_case "a classic-mode slice trap wins at the fuel limit"
      `Quick test_classic_slice_at_fuel_limit;
    Alcotest.test_case "every instruction form agrees fused and stepped"
      `Quick test_every_form_fused_vs_stepped;
    Alcotest.test_case "a hook at every position of a fused loop trace"
      `Quick test_every_form_hook_at_every_position;
    Alcotest.test_case "corpus verdicts are engine-invariant" `Quick
      test_corpus_engine_invariant;
    Alcotest.test_case "simulated_mips is reported" `Quick
      test_simulated_mips;
    Alcotest.test_case "layout boundary is exact" `Quick test_layout_boundary;
    Alcotest.test_case "duplicate globals raise BS-IMG-01" `Quick
      test_duplicate_global;
    QCheck_alcotest.to_alcotest prop_journal_restore ]
