open Bs_ir

(* Unit tests for the IR substrate: construction, CFG utilities, dominators,
   liveness (including the SIR handler relation), natural loops, cloning,
   block splitting, and the verifier's rejection of malformed programs. *)

(* Hand-build:  entry -> loop(header -> body -> header) -> exit  with an
   accumulator phi. *)
let build_loop_func () =
  let f = Ir.create_func ~name:"loop" ~params:[ ("n", 32) ] ~ret_width:32 in
  let b = Builder.create f in
  let entry = Ir.add_block f "entry" in
  let header = Ir.add_block f "header" in
  let body = Ir.add_block f "body" in
  let exit_b = Ir.add_block f "exit" in
  Builder.position_at_end b entry;
  ignore (Builder.br b header);
  Builder.position_at_end b header;
  let phi_i = Builder.phi b ~width:32 [] in
  let phi_s = Builder.phi b ~width:32 [] in
  let n = Builder.param b 0 in
  let cond = Builder.cmp b Ir.Ult (Builder.value phi_i) (Builder.value n) in
  ignore (Builder.cbr b (Builder.value cond) ~if_true:body ~if_false:exit_b);
  Builder.position_at_end b body;
  let s' =
    Builder.bin b Ir.Add ~width:32 (Builder.value phi_s) (Builder.value phi_i)
  in
  let i' =
    Builder.bin b Ir.Add ~width:32 (Builder.value phi_i) (Ir.const ~width:32 1L)
  in
  ignore (Builder.br b header);
  Builder.position_at_end b exit_b;
  ignore (Builder.ret b (Some (Builder.value phi_s)));
  phi_i.Ir.op <-
    Ir.Phi [ (entry.Ir.bid, Ir.const ~width:32 0L); (body.Ir.bid, Builder.value i') ];
  phi_s.Ir.op <-
    Ir.Phi [ (entry.Ir.bid, Ir.const ~width:32 0L); (body.Ir.bid, Builder.value s') ];
  (f, entry, header, body, exit_b)

let test_builder_and_verify () =
  let f, _, _, _, _ = build_loop_func () in
  Verifier.check_func f;
  let m = { Ir.funcs = [ f ]; globals = [] } in
  match Verifier.verify m with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_succs_preds () =
  let f, entry, header, body, exit_b = build_loop_func () in
  Alcotest.(check (list int)) "entry succs" [ header.Ir.bid ]
    (Ir.succs entry);
  Alcotest.(check (list int)) "header succs" [ body.Ir.bid; exit_b.Ir.bid ]
    (Ir.succs header);
  let preds = Ir.preds f header.Ir.bid in
  Alcotest.(check bool) "header preds" true
    (List.mem entry.Ir.bid preds && List.mem body.Ir.bid preds)

let test_dominators () =
  let f, entry, header, body, exit_b = build_loop_func () in
  let dom = Dom.compute f in
  Alcotest.(check bool) "entry dom all" true
    (List.for_all
       (fun (b : Ir.block) -> Dom.dominates dom entry.Ir.bid b.Ir.bid)
       f.Ir.blocks);
  Alcotest.(check bool) "header dom body" true
    (Dom.dominates dom header.Ir.bid body.Ir.bid);
  Alcotest.(check bool) "body !dom exit" false
    (Dom.dominates dom body.Ir.bid exit_b.Ir.bid);
  Alcotest.(check bool) "strict" false
    (Dom.strictly_dominates dom header.Ir.bid header.Ir.bid)

let test_liveness () =
  let f, _, header, body, _ = build_loop_func () in
  let live = Liveness.compute f in
  (* the accumulator phi is live out of the body (loop-carried) *)
  let phi_s =
    List.find
      (fun (i : Ir.instr) -> Ir.is_phi i && i.Ir.iname = "")
      header.Ir.instrs
  in
  ignore phi_s;
  let out_body = Liveness.live_out live body.Ir.bid in
  Alcotest.(check bool) "body live-out nonempty" false
    (Liveness.IntSet.is_empty out_body)

let test_loops () =
  let f, _, header, body, _ = build_loop_func () in
  let loops = Loops.compute f in
  Alcotest.(check int) "one loop" 1 (List.length loops);
  let l = List.hd loops in
  Alcotest.(check int) "header" header.Ir.bid l.Loops.header;
  Alcotest.(check (list int)) "latch" [ body.Ir.bid ] l.Loops.latches;
  Alcotest.(check int) "depth" 1 l.Loops.depth;
  let exits = Loops.exits f l in
  Alcotest.(check int) "one exit" 1 (Loops.IntSet.cardinal exits)

let test_split_block () =
  let f, _, _, body, _ = build_loop_func () in
  let before = List.length f.Ir.blocks in
  let nb = Ir.split_block f body ~at:1 in
  Alcotest.(check int) "one more block" (before + 1) (List.length f.Ir.blocks);
  Alcotest.(check int) "body has add + br" 2 (List.length body.Ir.instrs);
  Alcotest.(check bool) "continuation holds rest" true
    (List.length nb.Ir.instrs = 2);
  Verifier.check_func f

let test_clone_blocks () =
  let f, _, _, _, _ = build_loop_func () in
  let n = List.length f.Ir.blocks in
  let cm, clones = Ir.clone_blocks f f.Ir.blocks ~suffix:".c" in
  Alcotest.(check int) "doubled" (2 * n) (List.length f.Ir.blocks);
  Alcotest.(check int) "clones" n (List.length clones);
  (* clone edges are internal: no clone branches to an original *)
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun s ->
          Alcotest.(check bool) "clone target is clone" true
            (List.exists (fun (c : Ir.block) -> c.Ir.bid = s) clones))
        (Ir.succs b))
    clones;
  Alcotest.(check int) "map size" n (Hashtbl.length cm.Ir.cm_block)

let test_regions_and_preds_sir () =
  let f, _, header, body, _ = build_loop_func () in
  let handler = Ir.add_block f "handler" in
  Ir.append_instr handler (Ir.mk_instr f ~width:0 (Ir.Br header.Ir.bid));
  ignore (Ir.add_region f ~blocks:[ body.Ir.bid ] ~handler:handler.Ir.bid);
  let sir = Ir.preds_sir f in
  (* handler's SIR preds = preds of region entry (= body's preds = header) *)
  Alcotest.(check (list int)) "handler preds" [ header.Ir.bid ]
    (Hashtbl.find sir handler.Ir.bid);
  let smir = Ir.preds_smir f in
  Alcotest.(check (list int)) "smir handler preds" [ body.Ir.bid ]
    (Hashtbl.find smir handler.Ir.bid);
  Alcotest.(check bool) "is_handler" true (Ir.is_handler f handler.Ir.bid);
  Alcotest.(check bool) "region_of" true
    (Ir.region_of_block f body.Ir.bid <> None)

(* [expect_invalid what expected f]: the verifier rejects [f] with exactly
   the [expected] message, so a check that stopped working cannot hide
   behind another one that happens to reject the same function. *)
let expect_invalid what expected f =
  let m = { Ir.funcs = [ f ]; globals = [] } in
  match Verifier.verify m with
  | Error e -> Alcotest.(check string) what expected e
  | Ok () -> Alcotest.fail ("verifier accepted " ^ what)

(* A diamond: entry branches on [a < 10] to [then_] and [else_], which
   both branch to [join]; [join] returns 0 unless [ret] says otherwise.
   Nothing is defined in the arms: each case adds what it breaks. *)
type diamond = {
  df : Ir.func;
  d_entry : Ir.block;
  d_then : Ir.block;
  d_else : Ir.block;
  d_join : Ir.block;
  d_a : Ir.instr;
}

let diamond () =
  let f = Ir.create_func ~name:"d" ~params:[ ("a", 32) ] ~ret_width:32 in
  let b = Builder.create f in
  let entry = Ir.add_block f "entry" in
  let then_ = Ir.add_block f "then" in
  let else_ = Ir.add_block f "else" in
  let join = Ir.add_block f "join" in
  let a = Builder.param b 0 in
  Builder.position_at_end b entry;
  let c = Builder.cmp b Ir.Ult (Builder.value a) (Ir.const ~width:32 10L) in
  ignore (Builder.cbr b (Builder.value c) ~if_true:then_ ~if_false:else_);
  Builder.position_at_end b then_;
  ignore (Builder.br b join);
  Builder.position_at_end b else_;
  ignore (Builder.br b join);
  Builder.flush b;
  { df = f; d_entry = entry; d_then = then_; d_else = else_; d_join = join;
    d_a = a }

(* [put d blk i] places [i] before [blk]'s terminator. *)
let put (blk : Ir.block) (i : Ir.instr) =
  match List.rev blk.Ir.instrs with
  | t :: rest -> blk.Ir.instrs <- List.rev (t :: i :: rest)
  | [] -> blk.Ir.instrs <- [ i ]

let finish ?(ret = Ir.const ~width:32 0L) d =
  Ir.append_instr d.d_join (Ir.mk_instr d.df ~width:0 (Ir.Ret (Some ret)))

let add1 f (o : Ir.operand) =
  Ir.mk_instr f ~width:32 (Ir.Bin (Ir.Add, o, Ir.const ~width:32 1L))

let handler d name ~target =
  let h = Ir.add_block d.df name in
  Ir.append_instr h (Ir.mk_instr d.df ~width:0 (Ir.Br target.Ir.bid));
  h

let test_verifier_rejects () =
  (* width mismatch *)
  let f = Ir.create_func ~name:"bad" ~params:[ ("a", 32) ] ~ret_width:32 in
  let b = Builder.create f in
  let e = Ir.add_block f "entry" in
  Builder.position_at_end b e;
  let a = Builder.param b 0 in
  let x = Builder.bin b Ir.Add ~width:16 (Builder.value a) (Ir.const ~width:16 1L) in
  ignore (Builder.ret b (Some (Builder.value x)));
  expect_invalid "width mismatch"
    (Printer.instr_str f x ^ ": bin operand widths 32/16 mismatch result 16")
    f;
  (* use before def in block *)
  let f2 = Ir.create_func ~name:"bad2" ~params:[] ~ret_width:32 in
  let b2 = Builder.create f2 in
  let e2 = Ir.add_block f2 "entry" in
  Builder.position_at_end b2 e2;
  let dead = Ir.mk_instr f2 ~width:32 (Ir.Bin (Ir.Add, Ir.const ~width:32 1L, Ir.const ~width:32 1L)) in
  let y = Builder.bin b2 Ir.Add ~width:32 (Ir.Var dead.Ir.iid) (Ir.const ~width:32 1L) in
  Ir.append_instr e2 dead; (* def placed after use *)
  ignore (Builder.ret b2 (Some (Builder.value y)));
  (* reorder so the use comes first *)
  e2.Ir.instrs <-
    (List.filter (fun (i : Ir.instr) -> i.Ir.iid = y.Ir.iid) e2.Ir.instrs)
    @ List.filter (fun (i : Ir.instr) -> i.Ir.iid <> y.Ir.iid) e2.Ir.instrs;
  expect_invalid "use before def"
    (Printf.sprintf "%%%d used before definition in block entry" dead.Ir.iid)
    f2;
  (* handler as branch target: [else] branches into [then]'s handler *)
  let d = diamond () in
  let h = handler d "h" ~target:d.d_join in
  ignore (Ir.add_region d.df ~blocks:[ d.d_then.Ir.bid ] ~handler:h.Ir.bid);
  (Ir.terminator d.d_else).Ir.op <- Ir.Br h.Ir.bid;
  finish d;
  expect_invalid "handler branch target"
    (Printf.sprintf "handler %d is a branch target of block %d" h.Ir.bid
       d.d_else.Ir.bid)
    d.df;
  (* missing terminator *)
  let f4 = Ir.create_func ~name:"bad4" ~params:[] ~ret_width:0 in
  let e4 = Ir.add_block f4 "entry" in
  Ir.append_instr e4 (Ir.mk_instr f4 ~width:32 (Ir.Bin (Ir.Add, Ir.const ~width:32 1L, Ir.const ~width:32 2L)));
  expect_invalid "no terminator" "block entry does not end with a terminator" f4

let test_verifier_ssa_rules () =
  (* a use in [join] of a value defined in one arm *)
  let d = diamond () in
  let x = add1 d.df (Builder.value d.d_a) in
  put d.d_then x;
  let y = add1 d.df (Builder.value x) in
  Ir.append_instr d.d_join y;
  finish ~ret:(Builder.value y) d;
  expect_invalid "use not dominated"
    (Printf.sprintf "definition of %%%d (block %d) does not dominate use in join"
       x.Ir.iid d.d_then.Ir.bid)
    d.df;
  (* a phi reading, along the edge from [then], a value of [else] *)
  let d = diamond () in
  let x = add1 d.df (Builder.value d.d_a) in
  put d.d_else x;
  let p =
    Ir.mk_instr d.df ~width:32
      (Ir.Phi [ (d.d_then.Ir.bid, Builder.value x);
                (d.d_else.Ir.bid, Ir.const ~width:32 0L) ])
  in
  Ir.append_instr d.d_join p;
  finish ~ret:(Builder.value p) d;
  expect_invalid "phi operand not dominating its edge"
    (Printf.sprintf "phi operand %%%d does not dominate edge %d->%d" x.Ir.iid
       d.d_then.Ir.bid d.d_join.Ir.bid)
    d.df;
  (* a phi with an incoming from [entry], which is not [join]'s predecessor *)
  let d = diamond () in
  let p =
    Ir.mk_instr d.df ~width:32
      (Ir.Phi [ (d.d_then.Ir.bid, Ir.const ~width:32 1L);
                (d.d_else.Ir.bid, Ir.const ~width:32 2L);
                (d.d_entry.Ir.bid, Ir.const ~width:32 3L) ])
  in
  Ir.append_instr d.d_join p;
  finish ~ret:(Builder.value p) d;
  expect_invalid "phi from a non-predecessor"
    (Printf.sprintf "phi %s has incoming from non-predecessor %d"
       (Printer.instr_str d.df p) d.d_entry.Ir.bid)
    d.df;
  (* a phi without an incoming for [else] *)
  let d = diamond () in
  let p =
    Ir.mk_instr d.df ~width:32
      (Ir.Phi [ (d.d_then.Ir.bid, Ir.const ~width:32 1L) ])
  in
  Ir.append_instr d.d_join p;
  finish ~ret:(Builder.value p) d;
  expect_invalid "phi missing an incoming"
    (Printf.sprintf "phi %s misses incoming for predecessor(s) %d"
       (Printer.instr_str d.df p) d.d_else.Ir.bid)
    d.df;
  (* one instruction placed in two blocks *)
  let d = diamond () in
  let x = add1 d.df (Builder.value d.d_a) in
  put d.d_then x;
  put d.d_else x;
  finish d;
  expect_invalid "duplicate definition"
    (Printf.sprintf "%%%d defined twice" x.Ir.iid)
    d.df

let test_verifier_region_rules () =
  (* Theorem 3.1: a region holding the function's entry dominates its
     handler, so the handler may read the region's definitions, and one
     that does finds them live at its entry *)
  let f = Ir.create_func ~name:"t31" ~params:[ ("a", 32) ] ~ret_width:32 in
  let entry = Ir.add_block f "entry" in
  let next = Ir.add_block f "next" in
  let h = Ir.add_block f "h" in
  let x = add1 f (Ir.Var (List.hd f.Ir.param_instrs).Ir.iid) in
  Ir.append_instr entry x;
  Ir.append_instr entry (Ir.mk_instr f ~width:0 (Ir.Br next.Ir.bid));
  Ir.append_instr next (Ir.mk_instr f ~width:0 (Ir.Ret (Some (Ir.Var x.Ir.iid))));
  let y = add1 f (Ir.Var x.Ir.iid) in
  Ir.append_instr h y;
  Ir.append_instr h (Ir.mk_instr f ~width:0 (Ir.Ret (Some (Ir.Var y.Ir.iid))));
  let r = Ir.add_region f ~blocks:[ entry.Ir.bid ] ~handler:h.Ir.bid in
  expect_invalid "region definition live at its handler"
    (Printf.sprintf "region %d definition %%%d live at handler entry (Thm 3.1)"
       r.Ir.rid x.Ir.iid)
    f;
  (* one block in two regions *)
  let d = diamond () in
  let h1 = handler d "h1" ~target:d.d_join in
  let h2 = handler d "h2" ~target:d.d_join in
  ignore (Ir.add_region d.df ~blocks:[ d.d_then.Ir.bid ] ~handler:h1.Ir.bid);
  ignore (Ir.add_region d.df ~blocks:[ d.d_then.Ir.bid ] ~handler:h2.Ir.bid);
  finish d;
  expect_invalid "block in two regions"
    (Printf.sprintf "block %d belongs to two regions" d.d_then.Ir.bid)
    d.df;
  (* a handler listed among its own region's blocks *)
  let d = diamond () in
  let h = handler d "h" ~target:d.d_join in
  ignore
    (Ir.add_region d.df ~blocks:[ d.d_then.Ir.bid; h.Ir.bid ] ~handler:h.Ir.bid);
  finish d;
  expect_invalid "handler inside its own region"
    (Printf.sprintf "handler %d contained in its own region" h.Ir.bid)
    d.df;
  (* one handler for two regions *)
  let d = diamond () in
  let h = handler d "h" ~target:d.d_join in
  ignore (Ir.add_region d.df ~blocks:[ d.d_then.Ir.bid ] ~handler:h.Ir.bid);
  ignore (Ir.add_region d.df ~blocks:[ d.d_else.Ir.bid ] ~handler:h.Ir.bid);
  finish d;
  expect_invalid "handler for two regions"
    (Printf.sprintf "block %d handles 2 regions" h.Ir.bid)
    d.df;
  (* the same shapes, well formed, pass *)
  let d = diamond () in
  let h = handler d "h" ~target:d.d_join in
  ignore (Ir.add_region d.df ~blocks:[ d.d_then.Ir.bid ] ~handler:h.Ir.bid);
  finish d;
  Verifier.check_func d.df

let test_rpo () =
  let f, entry, _, _, _ = build_loop_func () in
  let order = Ir.reverse_postorder f in
  Alcotest.(check int) "visits all" (List.length f.Ir.blocks)
    (List.length order);
  Alcotest.(check int) "entry first" entry.Ir.bid (List.hd order)

let test_printer_roundtrip_shape () =
  let f, _, _, _, _ = build_loop_func () in
  let s = Printer.func_str f in
  Alcotest.(check bool) "mentions phi" true
    (String.length s > 0
    && Str_exists.contains s "phi"
    && Str_exists.contains s "cmp ult")

let suite =
  [ Alcotest.test_case "builder + verifier" `Quick test_builder_and_verify;
    Alcotest.test_case "succs/preds" `Quick test_succs_preds;
    Alcotest.test_case "dominators" `Quick test_dominators;
    Alcotest.test_case "liveness" `Quick test_liveness;
    Alcotest.test_case "natural loops" `Quick test_loops;
    Alcotest.test_case "split_block" `Quick test_split_block;
    Alcotest.test_case "clone_blocks" `Quick test_clone_blocks;
    Alcotest.test_case "regions + SIR/SMIR preds" `Quick test_regions_and_preds_sir;
    Alcotest.test_case "verifier rejects malformed IR" `Quick test_verifier_rejects;
    Alcotest.test_case "verifier SSA rules, each by its message" `Quick
      test_verifier_ssa_rules;
    Alcotest.test_case "verifier region rules, each by its message" `Quick
      test_verifier_region_rules;
    Alcotest.test_case "reverse postorder" `Quick test_rpo;
    Alcotest.test_case "printer output" `Quick test_printer_roundtrip_shape ]
