open Bs_isa
open Bs_sim
open Isa

(* Machine-level unit tests: hand-assembled programs exercising individual
   instruction semantics, slice aliasing, condition codes, memory widths,
   the Δ-redirect misspeculation mechanism, and calling convention
   plumbing — independent of the compiler. *)

let sl r b = { sl_reg = r; sl_byte = b }

(* Build a runnable program from raw instructions; entry at 0, HALT
   appended.  [delta] positions a skeleton area when testing
   misspeculation. *)
let program ?(delta = 0) insns : Bs_backend.Asm.program =
  let code = Array.of_list (insns @ [ HALT ]) in
  { Bs_backend.Asm.code;
    prov = Array.make (Array.length code) PNormal;
    srcmap = Array.make (Array.length code) None;
    entries = (let t = Hashtbl.create 1 in Hashtbl.replace t "main" 0; t);
    delta;
    halt_pc = Array.length code - 1;
    handler_pcs = Hashtbl.create 1 }

let exec ?(mode = Bitspec) ?(fuel = 100000) ?(engine = Machine.Classic) ?mem
    ?(entry = "main") insns =
  let m = { Bs_ir.Ir.funcs = []; globals = [] } in
  let memory =
    match mem with Some m -> m | None -> Bs_interp.Memimage.create ~size:65536 m
  in
  Machine.run ~config:{ Machine.mode; fuel; fault = None; power = None; engine }
    (program insns)
    memory ~entry ~args:[]

(* The trap a program's run reports as its outcome.  Classic and Jit
   must return the same record: the trap and no activity. *)
let trap_of ?mode ?entry insns =
  let classic = exec ?mode ?entry ~engine:Machine.Classic insns in
  let jit = exec ?mode ?entry ~engine:Machine.Jit insns in
  Alcotest.(check bool) "classic and jit return the same result" true
    (classic = jit);
  match classic.Machine.outcome with
  | Bs_support.Outcome.Trapped t ->
      let idle = Counters.create () in
      Alcotest.(check bool) "a trapped result reports no activity" true
        (classic.Machine.r0 = 0L && classic.Machine.ctr = idle
        && classic.Machine.misspec_pcs = []
        && List.for_all
             (fun c -> Cache.accesses c = 0)
             [ classic.Machine.icache; classic.Machine.dcache;
               classic.Machine.l2 ]);
      t
  | o ->
      Alcotest.failf "must trap, not end %s" (Bs_support.Outcome.to_string o)

let wrong_kind k =
  Alcotest.failf "wrong trap kind: %s" (Bs_support.Outcome.trap_message k)

let r0_of insns = (exec insns).Machine.r0

let check64 = Alcotest.(check int64)

let test_mov_movw_movt () =
  check64 "movw" 0xBEEFL (r0_of [ MOVW (0, 0xBEEF) ]);
  check64 "movw+movt" 0xDEADBEEFL
    (r0_of [ MOVW (0, 0xBEEF); MOVT (0, 0xDEAD) ]);
  check64 "mov" 42L (r0_of [ MOVW (1, 42); MOV (0, 1) ])

let test_alu () =
  let binop op a b =
    r0_of [ MOVW (1, a); MOVW (2, b); ALU (op, 0, 1, Reg 2) ]
  in
  check64 "add" 30L (binop OpAdd 10 20);
  check64 "sub wrap" 0xFFFFFFFFL (binop OpSub 10 11);
  check64 "and" 8L (binop OpAnd 12 10);
  check64 "orr" 14L (binop OpOrr 12 10);
  check64 "eor" 6L (binop OpEor 12 10);
  check64 "lsl" 48L (binop OpLsl 12 2);
  check64 "lsr" 3L (binop OpLsr 12 2);
  check64 "imm" 112L (r0_of [ MOVW (1, 100); ALU (OpAdd, 0, 1, Imm 12) ]);
  (* asr on a negative value *)
  check64 "asr sign" 0xFFFFFFFEL
    (r0_of
       [ MOVW (1, 0xFFF8); MOVT (1, 0xFFFF); MOVW (2, 2);
         ALU (OpAsr, 0, 1, Reg 2) ])

let test_mul_div () =
  check64 "mul" 391L (r0_of [ MOVW (1, 17); MOVW (2, 23); MUL (0, 1, 2) ]);
  check64 "udiv" 5L
    (r0_of [ MOVW (1, 17); MOVW (2, 3); DIV (Unsigned, 0, 1, 2) ]);
  check64 "sdiv" 0xFFFFFFFBL
    (r0_of
       [ MOVW (1, 0xFFEF); MOVT (1, 0xFFFF); (* -17 *)
         MOVW (2, 3); DIV (Signed, 0, 1, 2) ])

let test_cset_conditions () =
  let cmp_cset c a b =
    r0_of [ MOVW (1, a); MOVW (2, b); CMP (1, Reg 2); CSET (c, 0) ]
  in
  check64 "eq" 1L (cmp_cset CEq 5 5);
  check64 "ne" 0L (cmp_cset CNe 5 5);
  check64 "ult" 1L (cmp_cset CUlt 3 5);
  check64 "uge" 0L (cmp_cset CUge 3 5);
  (* signed: 0xFFFFFFFF is -1 < 1 *)
  check64 "slt negative" 1L
    (r0_of
       [ MOVW (1, 0xFFFF); MOVT (1, 0xFFFF); MOVW (2, 1); CMP (1, Reg 2);
         CSET (CSlt, 0) ]);
  check64 "ult unsigned-max" 0L
    (r0_of
       [ MOVW (1, 0xFFFF); MOVT (1, 0xFFFF); MOVW (2, 1); CMP (1, Reg 2);
         CSET (CUlt, 0) ])

let test_branches () =
  (* skip over the poisoning instruction *)
  check64 "b skips" 1L (r0_of [ MOVW (0, 1); B 3; MOVW (0, 99); NOP ]);
  check64 "bc taken" 1L
    (r0_of
       [ MOVW (0, 1); MOVW (1, 3); CMP (1, Imm 3); BC (CEq, 5); MOVW (0, 99);
         NOP ]);
  check64 "bc not taken" 99L
    (r0_of
       [ MOVW (0, 1); MOVW (1, 4); CMP (1, Imm 3); BC (CEq, 6); MOVW (0, 99);
         NOP ])

let test_slices_alias_register_bytes () =
  (* writing byte 1 of r1 must leave other bytes intact; reading slices
     extracts exactly one byte *)
  let r =
    exec
      [ MOVW (1, 0x3344); MOVT (1, 0x1122);   (* r1 = 0x11223344 *)
        BMOVI (sl 1 1, 0xAB);                 (* r1 = 0x1122AB44 *)
        BEXT (Unsigned, 0, sl 1 1) ]
  in
  check64 "slice write+read" 0xABL r.Machine.r0;
  let r2 =
    exec
      [ MOVW (1, 0x3344); MOVT (1, 0x1122); BMOVI (sl 1 1, 0xAB); MOV (0, 1) ]
  in
  check64 "rest of register intact" 0x1122AB44L r2.Machine.r0

let test_balu_and_bext_sign () =
  check64 "badd" 30L
    (r0_of
       [ BMOVI (sl 1 0, 10); BMOVI (sl 2 0, 20);
         BALU (BAdd, sl 0 0, sl 1 0, Sl (sl 2 0)); BEXT (Unsigned, 0, sl 0 0) ]);
  check64 "bsext negative" 0xFFFFFF80L
    (r0_of [ BMOVI (sl 1 0, 0x80); BEXT (Signed, 0, sl 1 0) ]);
  check64 "balu imm4" 9L
    (r0_of
       [ BMOVI (sl 1 2, 14); BALU (BSub, sl 0 1, sl 1 2, BImm 5);
         BEXT (Unsigned, 0, sl 0 1) ])

let test_misspec_redirect () =
  (* layout: [0..2] work, [3] = skeleton branch to handler at [5].
     BADD of 200+100 overflows the slice: PC := 2 + Δ(1) = 3. *)
  let insns =
    [ BMOVI (sl 1 0, 200);                      (* 0 *)
      BMOVI (sl 2 0, 100);                      (* 1 *)
      BALU (BAdd, sl 3 0, sl 1 0, Sl (sl 2 0)); (* 2: misspeculates *)
      B 5;                                      (* 3: skeleton *)
      NOP;                                      (* 4: fallthrough if no misspec *)
      MOVW (0, 777) ]                           (* 5: handler *)
  in
  let p = program ~delta:1 insns in
  let m = { Bs_ir.Ir.funcs = []; globals = [] } in
  let r =
    Machine.run ~config:{ Machine.mode = Bitspec; fuel = 1000; fault = None; power = None;
                  engine = Machine.Classic }
      p
      (Bs_interp.Memimage.create ~size:65536 m) ~entry:"main" ~args:[]
  in
  check64 "handler ran" 777L r.Machine.r0;
  Alcotest.(check int) "one misspec" 1 r.Machine.ctr.Counters.misspecs;
  (* the destination slice must NOT have been written *)
  check64 "no commit" 777L r.Machine.r0

let test_no_misspec_in_range () =
  let r =
    exec
      [ BMOVI (sl 1 0, 100); BMOVI (sl 2 0, 100);
        BALU (BAdd, sl 0 0, sl 1 0, Sl (sl 2 0)); BEXT (Unsigned, 0, sl 0 0) ]
  in
  check64 "200 fits" 200L r.Machine.r0;
  Alcotest.(check int) "no misspec" 0 r.Machine.ctr.Counters.misspecs

let test_memory_widths () =
  let m = { Bs_ir.Ir.funcs = []; globals = [] } in
  let mem = Bs_interp.Memimage.create ~size:65536 m in
  let r =
    Machine.run ~config:Machine.default_config
      (program
         [ MOVW (1, 0x1000);
           MOVW (2, 0xBEEF); MOVT (2, 0xDEAD);
           STR (W32, 2, 1, 0);
           LDR (W8, Unsigned, 3, 1, 1);        (* byte 1 = 0xBE *)
           LDR (W16, Unsigned, 4, 1, 2);       (* half at 2 = 0xDEAD *)
           LDR (W8, Signed, 5, 1, 3);          (* 0xDE sign-extends *)
           ALU (OpAdd, 0, 3, Reg 4);
           ALU (OpAdd, 0, 0, Reg 5) ])
      mem ~entry:"main" ~args:[]
  in
  (* 0xBE + 0xDEAD + 0xFFFFFFDE = 0xDF49 (mod 2^32) *)
  check64 "mixed widths" 0xDF49L r.Machine.r0

let test_slice_indexed_memory () =
  let r =
    exec
      [ MOVW (1, 0x2000);
        BMOVI (sl 2 1, 5);                     (* index 5 in a slice *)
        MOVW (3, 0x77);
        STR (W8, 3, 1, 5);
        BLDRB (sl 0 0, 1, BIdx (sl 2 1));
        BEXT (Unsigned, 0, sl 0 0) ]
  in
  check64 "Mem[Rn + Bm]" 0x77L r.Machine.r0

let test_bldrs_misspec_on_wide_value () =
  let insns =
    [ MOVW (1, 0x3000);
      MOVW (2, 0x1FF);                          (* 511 needs 9 bits *)
      STR (W32, 2, 1, 0);
      BLDRS (sl 0 0, 1, BOff 0);                (* 3: misspeculates *)
      B 6;                                      (* 4: skeleton *)
      NOP;
      MOVW (0, 555) ]                           (* 6: handler *)
  in
  let p = program ~delta:1 insns in
  let m = { Bs_ir.Ir.funcs = []; globals = [] } in
  let r =
    Machine.run ~config:{ Machine.mode = Bitspec; fuel = 1000; fault = None; power = None;
                  engine = Machine.Classic }
      p
      (Bs_interp.Memimage.create ~size:65536 m) ~entry:"main" ~args:[]
  in
  check64 "spec load misspec" 555L r.Machine.r0;
  Alcotest.(check int) "counted" 1 r.Machine.ctr.Counters.misspecs

let test_btrn () =
  check64 "fits" 200L
    (r0_of [ MOVW (1, 200); BTRN (sl 0 0, 1); BEXT (Unsigned, 0, sl 0 0) ]);
  let insns =
    [ MOVW (1, 300);
      BTRN (sl 0 0, 1);                        (* 1: misspeculates *)
      B 4;                                     (* 2: skeleton *)
      NOP;
      MOVW (0, 99) ]                           (* 4 *)
  in
  let p = program ~delta:1 insns in
  let m = { Bs_ir.Ir.funcs = []; globals = [] } in
  let r =
    Machine.run ~config:{ Machine.mode = Bitspec; fuel = 1000; fault = None; power = None;
                  engine = Machine.Classic }
      p
      (Bs_interp.Memimage.create ~size:65536 m) ~entry:"main" ~args:[]
  in
  check64 "btrn misspec" 99L r.Machine.r0

let test_call_return () =
  (* main: BL f; f: r0 := 123; return *)
  let r =
    (* 0: call 3; returns to 1; add; branch to HALT (index 5) *)
    exec [ BL 3; ALU (OpAdd, 0, 0, Imm 1); B 5; MOVW (0, 123); BX_LR ]
  in
  check64 "call+return+add" 124L r.Machine.r0

let test_counters_register_widths () =
  let r =
    exec
      [ BMOVI (sl 1 0, 1); BMOVI (sl 2 0, 2);
        BALU (BAdd, sl 3 0, sl 1 0, Sl (sl 2 0));
        MOVW (4, 7); MOV (5, 4) ]
  in
  Alcotest.(check bool) "8-bit accesses counted" true
    (r.Machine.ctr.Counters.reg_read8 >= 2
    && r.Machine.ctr.Counters.reg_write8 >= 3);
  Alcotest.(check bool) "32-bit accesses counted" true
    (r.Machine.ctr.Counters.reg_write32 >= 2)

let test_setmode_and_delta () =
  (* SETMODE/SETDELTA round-trip: switch to classic and back around a
     conventional sequence (the §3.4 pre-compiled-code protocol) *)
  let r =
    exec
      [ SETMODE Classic; MOVW (0, 5); SETMODE Bitspec; BMOVI (sl 0 1, 9);
        BEXT (Unsigned, 0, sl 0 1) ]
  in
  check64 "mode switch" 9L r.Machine.r0;
  match trap_of [ SETMODE Classic; BMOVI (sl 0 0, 1) ] with
  | Bs_support.Outcome.Classic_mode_slice -> ()
  | k -> wrong_kind k

(* --- trap paths --------------------------------------------------------- *)

let test_trap_division_by_zero () =
  match trap_of [ MOVW (1, 9); MOVW (2, 0); DIV (Unsigned, 0, 1, 2) ] with
  | Bs_support.Outcome.Division_by_zero -> ()
  | k -> wrong_kind k

let test_trap_unknown_entry () =
  match trap_of ~entry:"nonexistent" [ NOP ] with
  | Bs_support.Outcome.Unknown_entry e ->
      Alcotest.(check string) "names the entry" "nonexistent" e
  | k -> wrong_kind k

let test_trap_pc_out_of_range () =
  match trap_of [ B 100 ] with
  | Bs_support.Outcome.Pc_out_of_range pc ->
      Alcotest.(check int) "escaped pc" 100 pc
  | k -> wrong_kind k

let test_fuel_exhaustion_outcome () =
  (* a tight infinite loop stops with the structured Out_of_fuel outcome —
     the same Outcome.t variant the interpreter reports — not an
     exception *)
  let r = exec ~fuel:100 [ B 0 ] in
  Alcotest.(check bool) "out of fuel" true
    (r.Machine.outcome = Bs_support.Outcome.Out_of_fuel);
  Alcotest.(check bool) "stopped at the budget" true
    (r.Machine.ctr.Counters.instrs <= 101)

(* Setting a run up forces no minor collection.  A dispatch table of
   more than 256 words is allocated in the major heap, and one made from
   a young first element empties the minor heap first: at one collection
   per run, that was most of a compiling process's collections. *)
let test_run_forces_no_minor_collection () =
  let insns = List.init 300 (fun k -> ALU (OpAdd, 1, 1, Imm (k land 7))) in
  let minors () = (Gc.quick_stat ()).Gc.minor_collections in
  List.iter
    (fun engine ->
      let mem =
        Bs_interp.Memimage.create ~size:65536
          { Bs_ir.Ir.funcs = []; globals = [] }
      in
      Gc.minor ();
      let before = minors () in
      let r = exec ~engine ~fuel:1 ~mem insns in
      let after = minors () in
      Alcotest.(check bool) "out of fuel" true
        (r.Machine.outcome = Bs_support.Outcome.Out_of_fuel);
      Alcotest.(check int) "minor collections" 0 (after - before))
    [ Machine.Classic; Machine.Jit ]

let test_trap_stack_runaway () =
  (* runaway recursion: each iteration pushes SP down by 4 KiB and
     stores; SP leaves the 64 KiB image and the access faults instead of
     silently corrupting state *)
  let insns =
    [ ALU (OpSub, 13, 13, Imm 4096);   (* sp -= 4096 *)
      STR (W32, 0, 13, 0);             (* touch the frame *)
      B 0 ]
  in
  match trap_of insns with
  | Bs_support.Outcome.Memory_fault _ -> ()
  | k -> wrong_kind k

(* Loops that trap after hundreds of iterations, so the trap strikes
   inside a fused trace under Jit: the divisor counts down to zero, the
   store address walks off the image. *)
let countdown_div = [ MOVW (1, 100); MOVW (2, 300); DIV (Unsigned, 0, 1, 2);
                      ALU (OpSub, 2, 2, Imm 1); B 2 ]

let walk_off_store = [ ALU (OpSub, 13, 13, Imm 16); STR (W32, 0, 13, 0); B 0 ]

let test_trap_in_fused_trace () =
  Alcotest.(check string) "division by zero" "div0"
    (Bs_support.Outcome.trap_name (trap_of countdown_div));
  Alcotest.(check string) "store off the image" "memory-fault"
    (Bs_support.Outcome.trap_name (trap_of walk_off_store))

let test_trapped_power_run_disarms_journal () =
  (* the journal a power run arms is disarmed however the run ends *)
  let m = { Bs_ir.Ir.funcs = []; globals = [] } in
  let mem = Bs_interp.Memimage.create ~size:65536 m in
  let power =
    { Machine.trace = Powertrace.create ~seed:3L (Powertrace.Periodic 50);
      policy = Checkpoint.Interval 20; max_retries = 8 }
  in
  let r =
    Machine.run
      ~config:{ Machine.default_config with fuel = 100000; power = Some power }
      (program walk_off_store) mem ~entry:"main" ~args:[]
  in
  Alcotest.(check string) "trapped" "trap"
    (match r.Machine.outcome with
    | Bs_support.Outcome.Trapped _ -> "trap"
    | o -> Bs_support.Outcome.to_string o);
  Alcotest.(check bool) "journal disarmed" false mem.Bs_interp.Memimage.j_on

(* --- fault injection ---------------------------------------------------- *)

let test_injected_flip_changes_register () =
  (* flip bit 4 of r0 between the MOVW and the HALT: 0x10 XOR 42 = 58 *)
  let m = { Bs_ir.Ir.funcs = []; globals = [] } in
  let fault =
    { Machine.at_instr = 2; target = Machine.Flip_reg (0, 4) }
  in
  let r =
    Machine.run
      ~config:
        { Machine.mode = Bitspec; fuel = 1000; fault = Some fault;
          power = None; engine = Machine.Classic }
      (program [ MOVW (0, 42); NOP; NOP ])
      (Bs_interp.Memimage.create ~size:65536 m)
      ~entry:"main" ~args:[]
  in
  Alcotest.(check bool) "fault applied" true r.Machine.fault_applied;
  check64 "bit flipped" (Int64.of_int (42 lxor 16)) r.Machine.r0

let test_injected_flip_detected_by_hardware () =
  (* flip bit 7 of the slice operand before a BADD: 100+100 becomes
     228+100 > 255, the slice ALU detects the overflow and redirects into
     the handler — the misspeculation hardware catching a soft error *)
  let insns =
    [ BMOVI (sl 1 0, 100);                      (* 0 *)
      BMOVI (sl 2 0, 100);                      (* 1 *)
      BALU (BAdd, sl 3 0, sl 1 0, Sl (sl 2 0)); (* 2: overflows post-flip *)
      B 5;                                      (* 3: skeleton *)
      NOP;
      MOVW (0, 777) ]                           (* 5: handler *)
  in
  let fault =
    { Machine.at_instr = 3; target = Machine.Flip_reg (1, 7) }
  in
  let m = { Bs_ir.Ir.funcs = []; globals = [] } in
  let r =
    Machine.run
      ~config:
        { Machine.mode = Bitspec; fuel = 1000; fault = Some fault;
          power = None; engine = Machine.Classic }
      (program ~delta:1 insns)
      (Bs_interp.Memimage.create ~size:65536 m)
      ~entry:"main" ~args:[]
  in
  Alcotest.(check int) "overflow detected" 1 r.Machine.ctr.Counters.misspecs;
  check64 "handler ran" 777L r.Machine.r0

(* Instruction lines and data lines never share an L2 tag.  A loop
   reads one byte from each of 64 consecutive lines from [base] in an
   8 MiB image, so each first touch misses the D$ and goes to the L2.
   Base 0x400000 is where instruction 0 once sat in the L2's address
   space, so there the loop's first loads found the loop's own
   instruction lines; base 0x3F8000 is one L2 set span lower: the same
   D$ and L2 sets under other tags.  Both runs must take the same
   cycles and the same L2 misses, under either engine. *)
let test_code_and_data_apart_in_l2 () =
  let run engine base =
    let mem =
      Bs_interp.Memimage.create ~size:(8 * 1024 * 1024)
        { Bs_ir.Ir.funcs = []; globals = [] }
    in
    exec ~engine ~mem
      [ MOVW (1, base land 0xFFFF); MOVT (1, base lsr 16); MOVW (2, 0);
        MOVW (0, 0);
        (* pc 4: the loop *)
        LDR (W8, Unsigned, 3, 1, 0); ALU (OpAdd, 0, 0, Reg 3);
        ALU (OpAdd, 1, 1, Imm 32); ALU (OpAdd, 2, 2, Imm 1);
        CMP (2, Imm 64); BC (CUlt, 4) ]
  in
  List.iter
    (fun engine ->
      let low = run engine 0x3F8000 and at_code = run engine 0x400000 in
      Alcotest.(check int) "every line misses the D$" 64
        low.Machine.dcache.Cache.misses;
      Alcotest.(check int) "L2 misses do not depend on the data's address"
        low.Machine.l2.Cache.misses at_code.Machine.l2.Cache.misses;
      Alcotest.(check int) "cycles do not depend on the data's address"
        low.Machine.ctr.Counters.cycles at_code.Machine.ctr.Counters.cycles)
    [ Machine.Classic; Machine.Jit ]

let suite =
  [ Alcotest.test_case "mov/movw/movt" `Quick test_mov_movw_movt;
    Alcotest.test_case "alu operations" `Quick test_alu;
    Alcotest.test_case "mul/div" `Quick test_mul_div;
    Alcotest.test_case "compare + cset conditions" `Quick test_cset_conditions;
    Alcotest.test_case "branches" `Quick test_branches;
    Alcotest.test_case "slices alias register bytes" `Quick
      test_slices_alias_register_bytes;
    Alcotest.test_case "slice ALU + extension" `Quick test_balu_and_bext_sign;
    Alcotest.test_case "misspeculation PC+Δ redirect" `Quick test_misspec_redirect;
    Alcotest.test_case "no misspeculation in range" `Quick test_no_misspec_in_range;
    Alcotest.test_case "memory widths + sign extension" `Quick test_memory_widths;
    Alcotest.test_case "slice-indexed addressing" `Quick test_slice_indexed_memory;
    Alcotest.test_case "speculative load misspeculates" `Quick
      test_bldrs_misspec_on_wide_value;
    Alcotest.test_case "speculative truncate" `Quick test_btrn;
    Alcotest.test_case "call/return" `Quick test_call_return;
    Alcotest.test_case "register access counters" `Quick
      test_counters_register_widths;
    Alcotest.test_case "classic mode protocol (§3.4)" `Quick test_setmode_and_delta;
    Alcotest.test_case "trap: division by zero" `Quick test_trap_division_by_zero;
    Alcotest.test_case "trap: unknown entry" `Quick test_trap_unknown_entry;
    Alcotest.test_case "trap: PC out of range" `Quick test_trap_pc_out_of_range;
    Alcotest.test_case "fuel exhaustion outcome" `Quick
      test_fuel_exhaustion_outcome;
    Alcotest.test_case "a run forces no minor collection" `Quick
      test_run_forces_no_minor_collection;
    Alcotest.test_case "trap: stack runaway faults" `Quick
      test_trap_stack_runaway;
    Alcotest.test_case "fault injection: register flip" `Quick
      test_injected_flip_changes_register;
    Alcotest.test_case "fault injection: caught by misspec hardware" `Quick
      test_injected_flip_detected_by_hardware;
    Alcotest.test_case "trap: inside a fused loop trace" `Quick
      test_trap_in_fused_trace;
    Alcotest.test_case "trap: a power run disarms its journal" `Quick
      test_trapped_power_run_disarms_journal;
    Alcotest.test_case "instruction and data lines apart in the L2" `Quick
      test_code_and_data_apart_in_l2 ]
