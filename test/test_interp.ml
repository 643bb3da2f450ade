open Bs_ir
open Bs_interp

(* Semantics of the IR evaluator, operator by operator: each binop,
   compare and cast is checked against an independent OCaml model over
   random values and widths, plus targeted edge cases (division by zero
   traps, shift masking, phi two-phase evaluation, memory endianness,
   misspeculation conditions).  Both engines share the arithmetic, so
   these models are its only independent check. *)

let widths = [ 1; 8; 16; 32; 64 ]

(* Full-range operands: any 64-bit pattern, small magnitudes of either
   sign, and each width's boundary values. *)
let gen_operand =
  QCheck.Gen.(
    frequency
      [ (3, int64);
        (2, map Int64.of_int (int_range (-300) 300));
        (1, oneofl [ Int64.min_int; Int64.max_int; 0L; 1L; -1L ]);
        (1, map (fun w -> Int64.shift_left 1L (w - 1)) (oneofl widths));
        (1, map Width.mask (oneofl widths)) ])

let print_w_ab (w, a, b) = Printf.sprintf "w=%d a=%Ld b=%Ld" w a b

(* operands as the environment holds them: truncated to the width *)
let gen_w_ab =
  QCheck.make ~print:print_w_ab
    QCheck.Gen.(
      let* w = oneofl widths in
      let* a = gen_operand in
      let* b = gen_operand in
      return (w, Width.trunc w a, Width.trunc w b))

let model op w a b =
  let t = Width.trunc w in
  let sa = Width.sext w a and sb = Width.sext w b in
  match op with
  | Ir.Add -> Some (t (Int64.add a b))
  | Ir.Sub -> Some (t (Int64.sub a b))
  | Ir.Mul -> Some (t (Int64.mul a b))
  | Ir.And -> Some (Int64.logand a b)
  | Ir.Or -> Some (Int64.logor a b)
  | Ir.Xor -> Some (Int64.logxor a b)
  | Ir.Udiv -> if b = 0L then None else Some (t (Int64.unsigned_div a b))
  | Ir.Urem -> if b = 0L then None else Some (t (Int64.unsigned_rem a b))
  | Ir.Sdiv -> if b = 0L then None else Some (t (Int64.div sa sb))
  | Ir.Srem -> if b = 0L then None else Some (t (Int64.rem sa sb))
  | Ir.Shl -> Some (t (Int64.shift_left a (Int64.to_int b land (w - 1))))
  | Ir.Lshr ->
      Some (t (Int64.shift_right_logical (Width.trunc w a) (Int64.to_int b land (w - 1))))
  | Ir.Ashr -> Some (t (Int64.shift_right sa (Int64.to_int b land (w - 1))))

let prop_of_binop op name =
  QCheck.Test.make ~name:("eval_binop " ^ name) ~count:1000 gen_w_ab
    (fun (w, a, b) ->
      match model op w a b with
      | Some expected -> Interp.eval_binop op w a b = expected
      | None -> (
          match Interp.eval_binop op w a b with
          | exception Interp.Trap Bs_support.Outcome.Division_by_zero -> true
          | _ -> false))

let binop_props =
  List.map
    (fun (op, n) -> prop_of_binop op n)
    [ (Ir.Add, "add"); (Ir.Sub, "sub"); (Ir.Mul, "mul"); (Ir.And, "and");
      (Ir.Or, "or"); (Ir.Xor, "xor"); (Ir.Udiv, "udiv"); (Ir.Urem, "urem");
      (Ir.Sdiv, "sdiv"); (Ir.Srem, "srem"); (Ir.Shl, "shl");
      (Ir.Lshr, "lshr"); (Ir.Ashr, "ashr") ]

let prop_cmp =
  QCheck.Test.make ~name:"eval_cmp all predicates" ~count:1000 gen_w_ab
    (fun (w, a, b) ->
      let sa = Width.sext w a and sb = Width.sext w b in
      let ua = Width.trunc w a and ub = Width.trunc w b in
      let expect op =
        let r =
          match op with
          | Ir.Eq -> ua = ub
          | Ir.Ne -> ua <> ub
          | Ir.Ult -> Int64.unsigned_compare ua ub < 0
          | Ir.Ule -> Int64.unsigned_compare ua ub <= 0
          | Ir.Ugt -> Int64.unsigned_compare ua ub > 0
          | Ir.Uge -> Int64.unsigned_compare ua ub >= 0
          | Ir.Slt -> sa < sb
          | Ir.Sle -> sa <= sb
          | Ir.Sgt -> sa > sb
          | Ir.Sge -> sa >= sb
        in
        if r then 1L else 0L
      in
      List.for_all
        (fun op -> Interp.eval_cmp op w a b = expect op)
        [ Ir.Eq; Ir.Ne; Ir.Ult; Ir.Ule; Ir.Ugt; Ir.Uge; Ir.Slt; Ir.Sle;
          Ir.Sgt; Ir.Sge ])

(* Casts run through the interpreter: a function [c(a) = cast a] per
   operation and (source, destination) width pair, executed by both
   engines, against the model. *)
let cast_model op ~sw ~w a =
  match op with
  | Ir.Zext | Ir.TruncCast -> Width.trunc w (Width.trunc sw a)
  | Ir.Sext -> Width.trunc w (Width.sext sw a)

let cast_name = function
  | Ir.Zext -> "zext"
  | Ir.Sext -> "sext"
  | Ir.TruncCast -> "trunc"

let cast_module op ~sw ~w =
  let f = Ir.create_func ~name:"c" ~params:[ ("a", sw) ] ~ret_width:w in
  let b = Builder.create f in
  Builder.position_at_end b (Ir.add_block f "entry");
  let a = Builder.value (Builder.param b 0) in
  let r = Builder.cast b op ~width:w a in
  ignore (Builder.ret b (Some (Builder.value r)));
  { Ir.funcs = [ f ]; globals = [] }

let cast_cases =
  lazy
    (List.concat_map
       (fun op ->
         List.concat_map
           (fun sw ->
             List.map (fun w -> (op, sw, w, cast_module op ~sw ~w)) widths)
           widths)
       [ Ir.Zext; Ir.Sext; Ir.TruncCast ])

let prop_casts =
  QCheck.Test.make ~name:"casts at every source and destination width"
    ~count:300
    (QCheck.make ~print:Int64.to_string gen_operand)
    (fun a ->
      let mem = Memimage.create ~size:65536 { Ir.funcs = []; globals = [] } in
      List.for_all
        (fun (op, sw, w, m) ->
          let expected = cast_model op ~sw ~w a in
          List.for_all
            (fun engine ->
              let opts = { Interp.default_opts with Interp.engine } in
              let r = Interp.exec ~opts m ~entry:"c" ~args:[ a ] mem in
              match r.Interp.ret with
              | Some v when v = expected -> true
              | got ->
                  QCheck.Test.fail_reportf "%s i%d -> i%d of %Ld: %s, not %Ld"
                    (cast_name op) sw w a
                    (Option.fold ~none:"none" ~some:Int64.to_string got)
                    expected)
            [ Interp.Tree; Interp.Compiled ])
        (Lazy.force cast_cases))

(* Table 1 against [Width.fits]: a slice Add/Sub misspeculates when its
   exact result is negative or needs more than the slice's bits, a slice
   truncate when its (untruncated) source does not fit, and nothing else
   ever does. *)
let prop_misspeculates =
  QCheck.Test.make ~name:"misspeculates follows Table 1" ~count:1000
    (QCheck.make ~print:print_w_ab
       QCheck.Gen.(triple (oneofl widths) gen_operand gen_operand))
    (fun (w, a, b) ->
      let f = Ir.create_func ~name:"t" ~params:[] ~ret_width:0 in
      let c = Ir.const ~width:w 0L in
      let misspeculates op args =
        let i = Ir.mk_instr f ~width:w op in
        i.Ir.speculative <- true;
        Interp.misspeculates i args 0L
      in
      let ta = Width.trunc w a and tb = Width.trunc w b in
      let overflows e = Int64.compare e 0L < 0 || not (Width.fits w e) in
      misspeculates (Ir.Bin (Ir.Add, c, c)) [ ta; tb ]
      = overflows (Int64.add ta tb)
      && misspeculates (Ir.Bin (Ir.Sub, c, c)) [ ta; tb ]
         = overflows (Int64.sub ta tb)
      && misspeculates (Ir.Cast (Ir.TruncCast, c)) [ a ] = not (Width.fits w a)
      && List.for_all
           (fun op -> not (misspeculates (Ir.Bin (op, c, c)) [ ta; tb ]))
           [ Ir.Mul; Ir.And; Ir.Or; Ir.Xor; Ir.Shl; Ir.Lshr; Ir.Ashr ])

let test_div_zero_traps () =
  List.iter
    (fun op ->
      match Interp.eval_binop op 32 5L 0L with
      | exception Interp.Trap Bs_support.Outcome.Division_by_zero -> ()
      | _ -> Alcotest.fail "division by zero must trap")
    [ Ir.Udiv; Ir.Sdiv; Ir.Urem; Ir.Srem ]

let test_shift_masking () =
  (* shift amounts are masked to width-1 bits, as on the machine *)
  Alcotest.(check int64) "shl by 32 == shl by 0" 5L
    (Interp.eval_binop Ir.Shl 32 5L 32L);
  Alcotest.(check int64) "shl by 33 == shl by 1" 10L
    (Interp.eval_binop Ir.Shl 32 5L 33L)

let test_misspec_conditions () =
  let f = Ir.create_func ~name:"t" ~params:[] ~ret_width:0 in
  let add = Ir.mk_instr f ~width:8 (Ir.Bin (Ir.Add, Ir.const ~width:8 0L, Ir.const ~width:8 0L)) in
  add.Ir.speculative <- true;
  Alcotest.(check bool) "200+100 overflows" true
    (Interp.misspeculates add [ 200L; 100L ] 44L);
  Alcotest.(check bool) "100+100 fits" false
    (Interp.misspeculates add [ 100L; 100L ] 200L);
  let sub = Ir.mk_instr f ~width:8 (Ir.Bin (Ir.Sub, Ir.const ~width:8 0L, Ir.const ~width:8 0L)) in
  sub.Ir.speculative <- true;
  Alcotest.(check bool) "3-5 underflows" true
    (Interp.misspeculates sub [ 3L; 5L ] 254L);
  let trunc = Ir.mk_instr f ~width:8 (Ir.Cast (Ir.TruncCast, Ir.const ~width:32 0L)) in
  trunc.Ir.speculative <- true;
  Alcotest.(check bool) "trunc 256" true (Interp.misspeculates trunc [ 256L ] 0L);
  Alcotest.(check bool) "trunc 255" false (Interp.misspeculates trunc [ 255L ] 255L);
  let logic = Ir.mk_instr f ~width:8 (Ir.Bin (Ir.Xor, Ir.const ~width:8 0L, Ir.const ~width:8 0L)) in
  logic.Ir.speculative <- true;
  Alcotest.(check bool) "logic never misspeculates" false
    (Interp.misspeculates logic [ 255L; 255L ] 0L)

let test_memimage_endianness () =
  let m = { Ir.funcs = []; globals = [] } in
  let mem = Memimage.create ~size:65536 m in
  Memimage.write mem ~width:32 256 0xDEADBEEFL;
  Alcotest.(check int64) "byte 0" 0xEFL (Memimage.read mem ~width:8 256);
  Alcotest.(check int64) "byte 3" 0xDEL (Memimage.read mem ~width:8 259);
  Alcotest.(check int64) "halfword" 0xBEEFL (Memimage.read mem ~width:16 256);
  Alcotest.(check int64) "word" 0xDEADBEEFL (Memimage.read mem ~width:32 256)

let test_memimage_bounds () =
  let m = { Ir.funcs = []; globals = [] } in
  let mem = Memimage.create ~size:65536 m in
  (match Memimage.read mem ~width:32 65534 with
  | exception Memimage.Fault _ -> ()
  | _ -> Alcotest.fail "straddling read must fault");
  match Memimage.write mem ~width:8 (-1) 0L with
  | exception Memimage.Fault _ -> ()
  | _ -> Alcotest.fail "negative write must fault"

let test_globals_layout () =
  (* globals are aligned to their element size and non-overlapping *)
  let m =
    Bs_frontend.Lower.compile
      "u8 a[3];\nu32 b[2];\nu16 c[5];\nu32 f() { return 0; }"
  in
  let mem = Memimage.create m in
  let addr n = Memimage.addr_of mem n in
  Alcotest.(check bool) "b is 4-aligned" true (addr "b" mod 4 = 0);
  Alcotest.(check bool) "c is 2-aligned" true (addr "c" mod 2 = 0);
  Alcotest.(check bool) "disjoint" true
    (addr "b" >= addr "a" + 3 && addr "c" >= addr "b" + 8)

let test_interp_call_counting () =
  let m =
    Bs_frontend.Lower.compile
      "u32 g(u32 x) { return x + 1; }\n\
       u32 f(u32 n) { u32 s = 0; for (u32 i = 0; i < n; i += 1) s += g(i); return s; }"
  in
  let r, _ = Interp.run_fresh m ~entry:"f" ~args:[ 7L ] in
  Alcotest.(check int) "1 + 7 calls" 8 r.Interp.calls

let test_fuel_exhaustion () =
  (* fuel exhaustion is a structured outcome — the same Outcome.t variant
     the machine model reports — not an exception *)
  let m =
    Bs_frontend.Lower.compile "u32 f() { u32 x = 1; while (x) { x = 1; } return x; }"
  in
  let opts = { Interp.default_opts with fuel = 1000 } in
  let r, _ = Interp.run_fresh ~opts m ~entry:"f" ~args:[] in
  Alcotest.(check bool) "out of fuel" true
    (r.Interp.outcome = Bs_support.Outcome.Out_of_fuel);
  Alcotest.(check bool) "no return value" true (r.Interp.ret = None)

let test_normal_outcome_finished () =
  let m = Bs_frontend.Lower.compile "u32 f() { return 7; }" in
  let r, _ = Interp.run_fresh m ~entry:"f" ~args:[] in
  Alcotest.(check bool) "finished" true
    (r.Interp.outcome = Bs_support.Outcome.Finished)

(* The kind of the trap a run reports as its outcome; a trapped run
   reports no activity. *)
let trap_of what (r : Interp.result) =
  match r.Interp.outcome with
  | Bs_support.Outcome.Trapped t ->
      Alcotest.(check bool) (what ^ ": no activity") true
        (r.Interp.ret = None && r.Interp.steps = 0 && r.Interp.calls = 0
        && r.Interp.misspecs = 0 && r.Interp.misspec_sites = []);
      t
  | o ->
      Alcotest.failf "%s must trap, not end %s" what
        (Bs_support.Outcome.to_string o)

let check_trap what kind r =
  Alcotest.(check string) what kind
    (Bs_support.Outcome.trap_name (trap_of what r))

let test_trap_unknown_entry () =
  let m = Bs_frontend.Lower.compile "u32 f() { return 7; }" in
  let r, _ = Interp.run_fresh m ~entry:"nonexistent" ~args:[] in
  match trap_of "unknown entry" r with
  | Bs_support.Outcome.Unknown_entry e ->
      Alcotest.(check string) "names the entry" "nonexistent" e
  | t -> Alcotest.failf "wrong trap kind: %s" (Bs_support.Outcome.trap_name t)

let test_trap_stack_overflow_frames () =
  (* unbounded recursion with a stack frame: the simulated SP descends
     into the globals region and the interpreter traps *)
  let m =
    Bs_frontend.Lower.compile
      "u32 f(u32 n) { u8 a[4096]; a[0] = (u8)n; return f(n + 1) + a[0]; }"
  in
  let r, _ = Interp.run_fresh ~mem_size:65536 m ~entry:"f" ~args:[ 0L ] in
  check_trap "frame recursion" "stack-overflow" r

let test_trap_stack_overflow_frameless () =
  (* frameless unbounded recursion exhausts the host stack instead; the
     interpreter still reports the uniform stack-overflow trap *)
  let m = Bs_frontend.Lower.compile "u32 f(u32 n) { return f(n + 1); }" in
  let r, _ = Interp.run_fresh m ~entry:"f" ~args:[ 0L ] in
  check_trap "frameless recursion" "stack-overflow" r

let test_trap_division_in_program () =
  (* division and remainder by zero are one kind, as on the machine *)
  let m = Bs_frontend.Lower.compile "u32 f(u32 n) { return 100 / n; }" in
  check_trap "division by zero" "div0"
    (fst (Interp.run_fresh m ~entry:"f" ~args:[ 0L ]));
  let m2 = Bs_frontend.Lower.compile "u32 g(u32 n) { return 100 % n; }" in
  check_trap "remainder by zero" "div0"
    (fst (Interp.run_fresh m2 ~entry:"g" ~args:[ 0L ]))

let suite =
  List.map QCheck_alcotest.to_alcotest binop_props
  @ [ QCheck_alcotest.to_alcotest prop_cmp;
      Alcotest.test_case "division by zero traps" `Quick test_div_zero_traps;
      Alcotest.test_case "shift amount masking" `Quick test_shift_masking;
      Alcotest.test_case "Table 1 misspec conditions" `Quick
        test_misspec_conditions;
      Alcotest.test_case "little-endian memory" `Quick test_memimage_endianness;
      Alcotest.test_case "memory bounds faults" `Quick test_memimage_bounds;
      Alcotest.test_case "global layout alignment" `Quick test_globals_layout;
      Alcotest.test_case "call counting" `Quick test_interp_call_counting;
      Alcotest.test_case "fuel exhaustion" `Quick test_fuel_exhaustion;
      Alcotest.test_case "normal run reports Finished" `Quick
        test_normal_outcome_finished;
      Alcotest.test_case "trap: unknown entry" `Quick test_trap_unknown_entry;
      Alcotest.test_case "trap: stack overflow (frames)" `Quick
        test_trap_stack_overflow_frames;
      Alcotest.test_case "trap: stack overflow (frameless)" `Quick
        test_trap_stack_overflow_frameless;
      Alcotest.test_case "trap: division and remainder by zero" `Quick
        test_trap_division_in_program;
      QCheck_alcotest.to_alcotest prop_casts;
      QCheck_alcotest.to_alcotest prop_misspeculates ]
