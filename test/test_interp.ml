open Bs_ir
open Bs_interp

(* Semantics of the IR evaluator, operator by operator: each binop,
   compare and cast is checked against an independent OCaml model over
   random values and widths, plus targeted edge cases (division by zero
   traps, shift masking, memory endianness, misspeculation conditions),
   and whole runs against hand-counted answers: step, call and fuel
   accounting, phi two-phase commit, traps, and a loop that allocates
   nothing.  The interpreter and constant folding share the arithmetic,
   so these models are its only independent check. *)

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
   operation and (source, destination) width pair, against the model. *)
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
          let r = Interp.exec m ~entry:"c" ~args:[ a ] mem in
          match r.Interp.ret with
          | Some v when v = expected -> true
          | got ->
              QCheck.Test.fail_reportf "%s i%d -> i%d of %Ld: %s, not %Ld"
                (cast_name op) sw w a
                (Option.fold ~none:"none" ~some:Int64.to_string got)
                expected)
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

(* [f(n)] is the n-th Fibonacci number, from a loop whose header holds
   three phis and whose body calls [g]; built by hand, so the counts
   below are this IR's and not the front end's:

     g(x, y):  r = x + y; ret r                         2 steps
     f(n):     entry:  br header                        1 step
               header: i = phi [entry: 0; body: i'];
                       b = phi [entry: 1; body: t];
                       a = phi [entry: 0; body: b];
                       c = i <u n; cbr c, body, exit    5 steps, n + 1 times
               body:   t = g(a, b); i' = i + 1;
                       br header                        3 + 2 steps, n times
               exit:   ret a                            1 step

   So [f(n)] takes 10n + 7 steps and n + 1 calls.  On the back edge [a]
   reads [b], which the header sets first: a phi prefix that committed
   one phi at a time would hand [a] the new [b]. *)
let fib_loop () =
  let k32 v = Ir.const ~width:32 v in
  let g =
    Ir.create_func ~name:"g" ~params:[ ("x", 32); ("y", 32) ] ~ret_width:32
  in
  let bg = Builder.create g in
  Builder.position_at_end bg (Ir.add_block g "entry");
  let r =
    Builder.bin bg Ir.Add ~width:32
      (Builder.value (Builder.param bg 0))
      (Builder.value (Builder.param bg 1))
  in
  ignore (Builder.ret bg (Some (Builder.value r)));
  let f = Ir.create_func ~name:"f" ~params:[ ("n", 32) ] ~ret_width:32 in
  let b = Builder.create f in
  let entry = Ir.add_block f "entry" in
  let header = Ir.add_block f "header" in
  let body = Ir.add_block f "body" in
  let exit_b = Ir.add_block f "exit" in
  Builder.position_at_end b entry;
  ignore (Builder.br b header);
  Builder.position_at_end b header;
  let i = Builder.phi b ~width:32 [] in
  let fb = Builder.phi b ~width:32 [] in
  let fa = Builder.phi b ~width:32 [] in
  let n = Builder.value (Builder.param b 0) in
  let more = Builder.cmp b Ir.Ult (Builder.value i) n in
  ignore (Builder.cbr b (Builder.value more) ~if_true:body ~if_false:exit_b);
  Builder.position_at_end b body;
  let t =
    Builder.call b ~width:32 "g" [ Builder.value fa; Builder.value fb ]
  in
  let i' = Builder.bin b Ir.Add ~width:32 (Builder.value i) (k32 1L) in
  ignore (Builder.br b header);
  Builder.position_at_end b exit_b;
  ignore (Builder.ret b (Some (Builder.value fa)));
  let edges v back =
    [ (entry.Ir.bid, k32 v); (body.Ir.bid, Builder.value back) ]
  in
  i.Ir.op <- Ir.Phi (edges 0L i');
  fb.Ir.op <- Ir.Phi (edges 1L t);
  fa.Ir.op <- Ir.Phi (edges 0L fb);
  { Ir.funcs = [ f; g ]; globals = [] }

(* [run()] calls [h() = 300] at width 8: the call's result is truncated
   to the call's width, as every committed value is. *)
let narrow_call () =
  let h = Ir.create_func ~name:"h" ~params:[] ~ret_width:32 in
  let bh = Builder.create h in
  Builder.position_at_end bh (Ir.add_block h "entry");
  ignore (Builder.ret bh (Some (Ir.const ~width:32 300L)));
  let f = Ir.create_func ~name:"run" ~params:[] ~ret_width:8 in
  let b = Builder.create f in
  Builder.position_at_end b (Ir.add_block f "entry");
  let t = Builder.call b ~width:8 "h" [] in
  ignore (Builder.ret b (Some (Builder.value t)));
  { Ir.funcs = [ f; h ]; globals = [] }

let test_interp_call_counting () =
  let m =
    Bs_frontend.Lower.compile
      "u32 g(u32 x) { return x + 1; }\n\
       u32 f(u32 n) { u32 s = 0; for (u32 i = 0; i < n; i += 1) s += g(i); return s; }"
  in
  let r, _ = Interp.run_fresh m ~entry:"f" ~args:[ 7L ] in
  Alcotest.(check int) "1 + 7 calls" 8 r.Interp.calls;
  let r, _ = Interp.run_fresh (fib_loop ()) ~entry:"f" ~args:[ 10L ] in
  Alcotest.(check (option int64)) "fib(10)" (Some 55L) r.Interp.ret;
  Alcotest.(check int) "fib(10): 10n + 7 steps" 107 r.Interp.steps;
  Alcotest.(check int) "fib(10): n + 1 calls" 11 r.Interp.calls;
  let r, _ = Interp.run_fresh (narrow_call ()) ~entry:"run" ~args:[] in
  Alcotest.(check (option int64)) "300 called at width 8" (Some 44L)
    r.Interp.ret

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
  Alcotest.(check bool) "no return value" true (r.Interp.ret = None);
  (* the boundary: fib(10) takes 107 steps, so a budget of 107 finishes
     and one of 106 runs out on the final [ret] *)
  let fib fuel =
    fst
      (Interp.run_fresh ~opts:{ Interp.default_opts with fuel } (fib_loop ())
         ~entry:"f" ~args:[ 10L ])
  in
  let r = fib 107 in
  Alcotest.(check bool) "fuel = steps: finished" true
    (r.Interp.outcome = Bs_support.Outcome.Finished
    && r.Interp.ret = Some 55L && r.Interp.steps = 107);
  let r = fib 106 in
  Alcotest.(check bool) "fuel = steps - 1: out of fuel" true
    (r.Interp.outcome = Bs_support.Outcome.Out_of_fuel && r.Interp.ret = None)

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
        && r.Interp.misspecs = 0);
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

(* [run(n)] returns [x], which only the branch taken when [n <> 0] sets:
   [run(0)] reads a value that was never set. *)
let unset_read () =
  let f = Ir.create_func ~name:"run" ~params:[ ("n", 32) ] ~ret_width:32 in
  let b = Builder.create f in
  let entry = Ir.add_block f "entry" in
  let set = Ir.add_block f "set" in
  let join = Ir.add_block f "join" in
  let n = Builder.value (Builder.param b 0) in
  Builder.position_at_end b entry;
  let c = Builder.cmp b Ir.Ne n (Ir.const ~width:32 0L) in
  ignore (Builder.cbr b (Builder.value c) ~if_true:set ~if_false:join);
  Builder.position_at_end b set;
  let x = Builder.bin b Ir.Add ~width:32 n (Ir.const ~width:32 1L) in
  ignore (Builder.br b join);
  Builder.position_at_end b join;
  ignore (Builder.ret b (Some (Builder.value x)));
  ({ Ir.funcs = [ f ]; globals = [] }, x.Ir.iid)

(* The other kinds: a load and a store out of bounds, a call to a
   function the module lacks, and malformed IR, whose trap carries its
   diagnostic — an entry called with too few or too many arguments, and
   a read of a value that was never set. *)
let test_trap_memory_callee_malformed () =
  let run m args = fst (Interp.run_fresh m ~entry:"run" ~args) in
  let compile = Bs_frontend.Lower.compile in
  check_trap "load out of bounds" "memory-fault"
    (run (compile "u8 buf[4];\nu32 run(u32 n) { return buf[n * 100000000]; }")
       [ 1L ]);
  check_trap "store out of bounds" "memory-fault"
    (run
       (compile
          "u8 buf[4];\nu32 run(u32 n) { buf[n * 100000000] = 7; return 0; }")
       [ 1L ]);
  (* the front end resolves every call: drop the callee to get an
     unknown one *)
  let m =
    compile "u32 gone(u32 x) { return x; }\nu32 run(u32 n) { return gone(n); }"
  in
  let m =
    { m with Ir.funcs = List.filter (fun f -> f.Ir.fname <> "gone") m.Ir.funcs }
  in
  check_trap "unknown callee" "unknown-function" (run m [ 1L ]);
  let message what expected r =
    match trap_of what r with
    | Bs_support.Outcome.Trap_message msg ->
        Alcotest.(check string) what expected msg
    | t ->
        Alcotest.failf "%s: trapped %s" what (Bs_support.Outcome.trap_name t)
  in
  let id = compile "u32 run(u32 n) { return n; }" in
  message "too few arguments" "arity mismatch calling run" (run id []);
  message "too many arguments" "arity mismatch calling run"
    (run id [ 1L; 2L ]);
  let m, x = unset_read () in
  Alcotest.(check (option int64)) "run(1) sets x" (Some 2L)
    (run m [ 1L ]).Interp.ret;
  message "unset read" (Printf.sprintf "read of unset %%%d in run" x)
    (run m [ 0L ])

(* [run(n)] takes the address of a global the module does not define,
   on the branch taken when [n <> 0] only. *)
let missing_global () =
  let f = Ir.create_func ~name:"run" ~params:[ ("n", 32) ] ~ret_width:32 in
  let b = Builder.create f in
  let entry = Ir.add_block f "entry" in
  let taken = Ir.add_block f "taken" in
  let other = Ir.add_block f "other" in
  let n = Builder.value (Builder.param b 0) in
  Builder.position_at_end b entry;
  let c = Builder.cmp b Ir.Ne n (Ir.const ~width:32 0L) in
  ignore (Builder.cbr b (Builder.value c) ~if_true:taken ~if_false:other);
  Builder.position_at_end b taken;
  let g = Builder.gaddr b "missing" in
  ignore (Builder.ret b (Some (Builder.value g)));
  Builder.position_at_end b other;
  ignore (Builder.ret b (Some (Ir.const ~width:32 7L)));
  { Ir.funcs = [ f ]; globals = [] }

(* A global's address is resolved when its function is compiled; an
   unknown one must still trap only when its [Gaddr] runs. *)
let test_gaddr_of_missing_global () =
  let m = missing_global () in
  let run n = fst (Interp.run_fresh m ~entry:"run" ~args:[ n ]) in
  let r = run 0L in
  Alcotest.(check string) "run(0) finishes" "finished"
    (Bs_support.Outcome.to_string r.Interp.outcome);
  Alcotest.(check (option int64)) "run(0)" (Some 7L) r.Interp.ret;
  match trap_of "run(1)" (run 1L) with
  | Bs_support.Outcome.Memory_fault msg ->
      Alcotest.(check string) "names the global" "unknown global missing" msg
  | t -> Alcotest.failf "run(1) trapped %s" (Bs_support.Outcome.trap_name t)

(* 8-, 16- and 32-bit accesses travel as plain ints; a 64-bit one must
   keep bit 63, which a plain int loses. *)
let test_u64_global_roundtrip () =
  let m =
    Bs_frontend.Lower.compile
      "u64 g[2];\nu64 run(u64 x) { g[1] = x; return g[1]; }"
  in
  let v = 0x8000_0000_0000_0001L in
  let r, mem = Interp.run_fresh m ~entry:"run" ~args:[ v ] in
  Alcotest.(check (option int64)) "reloaded" (Some v) r.Interp.ret;
  Alcotest.(check int64) "stored" v
    (Memimage.get_global mem m ~name:"g" ~index:1)

(* --- loops that allocate nothing --------------------------------------- *)

(* A loop of arithmetic, compares, casts, [?:] and if/else, with no loads,
   stores, calls or division, must run without touching the minor heap:
   every operand read, operation and commit stays unboxed, and entering a
   block through its phis allocates nothing.  So must a loop of 8-, 16-
   and 32-bit global loads and stores.  Both hold with profiling on, too:
   a profiled commit records its value inline.  The per-iteration cost is
   the difference between two trip counts, so compilation, image, profile
   and result set-up cancel out. *)
let alloc_kernel =
  {|
u32 run(u32 n) {
  u32 s = 7;
  u8 c = 0;
  i16 d = 0;
  for (u32 i = 0; i < n; i += 1) {
    u32 x = (i * 2654435761) ^ (s >> 3);
    c = (u8)(c + (u8)(x & 15));
    d = (i16)((i32)d - (i32)(x & 255));
    if ((x & 1) == 1) { s = s + (u32)c; } else { s = s - (u32)(i32)d; }
    s = s + ((i < 64) ? 3 : (u32)(c & 7));
    if ((i32)d < -1000) { d = 0; }
  }
  return s;
}
|}

let memory_kernel =
  {|
u8 b8[64];
u16 b16[64];
u32 b32[64];

u32 run(u32 n) {
  u32 s = 1;
  for (u32 i = 0; i < n; i += 1) {
    u32 j = i & 63;
    b8[j] = (u8)(b8[j] + (u8)s);
    b16[j] = (u16)(b16[(j + 1) & 63] ^ (u16)i);
    b32[j] = b32[j] + s;
    s = s + (u32)b8[j] + (u32)b16[j] + b32[(j + 7) & 63];
  }
  return s;
}
|}

let minor_words_per_iteration ~profiled (m : Ir.modul) =
  let run n =
    let mem = Memimage.create m in
    let opts =
      if profiled then
        { Interp.default_opts with profile = Some (Profile.create ()) }
      else Interp.default_opts
    in
    let w0 = Gc.minor_words () in
    ignore (Interp.exec ~opts m ~entry:"run" ~args:[ Int64.of_int n ] mem);
    Gc.minor_words () -. w0
  in
  let w1000 = run 1000 in
  (run 2000 -. w1000) /. 1000.

(* The front end lowers [?:] through control flow, so a [Select] comes
   from hand-built IR: [run(n)] sums [(i & 1) != 0 ? i : 3] over [i < n]. *)
let select_loop () =
  let f = Ir.create_func ~name:"run" ~params:[ ("n", 32) ] ~ret_width:32 in
  let b = Builder.create f in
  let entry = Ir.add_block f "entry" in
  let header = Ir.add_block f "header" in
  let body = Ir.add_block f "body" in
  let exit_b = Ir.add_block f "exit" in
  let k32 v = Ir.const ~width:32 v in
  Builder.position_at_end b entry;
  ignore (Builder.br b header);
  Builder.position_at_end b header;
  let i = Builder.phi b ~width:32 [] and s = Builder.phi b ~width:32 [] in
  let n = Builder.value (Builder.param b 0) in
  let more = Builder.cmp b Ir.Ult (Builder.value i) n in
  ignore (Builder.cbr b (Builder.value more) ~if_true:body ~if_false:exit_b);
  Builder.position_at_end b body;
  let odd = Builder.bin b Ir.And ~width:32 (Builder.value i) (k32 1L) in
  let c = Builder.cmp b Ir.Ne (Builder.value odd) (k32 0L) in
  let v =
    Builder.select b ~width:32 (Builder.value c) (Builder.value i) (k32 3L)
  in
  let s' = Builder.bin b Ir.Add ~width:32 (Builder.value s) (Builder.value v) in
  let i' = Builder.bin b Ir.Add ~width:32 (Builder.value i) (k32 1L) in
  ignore (Builder.br b header);
  Builder.position_at_end b exit_b;
  ignore (Builder.ret b (Some (Builder.value s)));
  i.Ir.op <- Ir.Phi [ (entry.Ir.bid, k32 0L); (body.Ir.bid, Builder.value i') ];
  s.Ir.op <- Ir.Phi [ (entry.Ir.bid, k32 0L); (body.Ir.bid, Builder.value s') ];
  { Ir.funcs = [ f ]; globals = [] }

let test_register_loop_allocates_nothing () =
  let pristine = Bs_frontend.Lower.compile alloc_kernel in
  let c =
    Bitspec.Driver.compile ~config:Bitspec.Driver.bitspec_config
      ~source:alloc_kernel ~train:[ ("run", [ 2000L ]) ] ()
  in
  List.iter
    (fun (what, m) ->
      List.iter
        (fun profiled ->
          Alcotest.(check (float 0.))
            (Printf.sprintf "%s%s: minor words per iteration" what
               (if profiled then ", profiled" else ""))
            0.
            (minor_words_per_iteration ~profiled m))
        [ false; true ])
    [ ("pristine IR", pristine); ("bitspec IR", c.Bitspec.Driver.ir);
      ("select loop", select_loop ()) ];
  (* no generated program has a [Select]: its answer is checked here.
     The 50 odd [i] below 101 sum to 2500, and the 51 even ones add 3
     each. *)
  let r, _ = Interp.run_fresh (select_loop ()) ~entry:"run" ~args:[ 101L ] in
  Alcotest.(check (option int64)) "select loop: run(101)" (Some 2653L)
    r.Interp.ret

let test_memory_loop_allocates_nothing () =
  let m = Bs_frontend.Lower.compile memory_kernel in
  List.iter
    (fun profiled ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "%s: minor words per iteration"
           (if profiled then "profiled" else "unprofiled"))
        0.
        (minor_words_per_iteration ~profiled m))
    [ false; true ]

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
      Alcotest.test_case "trap: memory faults, unknown callee, malformed IR"
        `Quick test_trap_memory_callee_malformed;
      Alcotest.test_case "a global's address traps only where it is taken"
        `Quick test_gaddr_of_missing_global;
      Alcotest.test_case "a u64 global keeps bit 63" `Quick
        test_u64_global_roundtrip;
      Alcotest.test_case "a register-only loop allocates nothing" `Quick
        test_register_loop_allocates_nothing;
      Alcotest.test_case "a loop of 8/16/32-bit loads and stores allocates \
                          nothing"
        `Quick test_memory_loop_allocates_nothing;
      QCheck_alcotest.to_alcotest prop_casts;
      QCheck_alcotest.to_alcotest prop_misspeculates ]
