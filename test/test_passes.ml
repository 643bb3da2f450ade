open Bs_ir
open Bs_frontend
open Bs_interp
open Bitspec

(* Tests for the BITSPEC-specific passes: CFG preparation invariants
   (equations 4-6), compare elimination, bitmask elision, SSA repair, and
   the speculation machinery's structural guarantees. *)

let test_cfg_prep_invariants () =
  List.iter
    (fun (w : Bs_workloads.Workload.t) ->
      let m = Lower.compile w.source in
      ignore (Expander.run m Expander.default);
      ignore (Cfg_prep.run m);
      Verifier.verify_exn m;
      List.iter
        (fun f ->
          Alcotest.(check bool)
            (w.name ^ "/" ^ f.Ir.fname ^ " satisfies eqs 4-6")
            true (Cfg_prep.check_func f))
        m.Ir.funcs)
    Bs_workloads.Registry.all

let test_cfg_prep_splits () =
  (* load-after-store in one statement sequence must end up in separate
     blocks (equation 4) *)
  let m =
    Lower.compile
      "u32 a[4];\nu32 f(u32 x) { a[0] = x; u32 y = a[1]; return y; }"
  in
  ignore (Cfg_prep.run m);
  let f = Option.get (Ir.find_func m "f") in
  Alcotest.(check bool) "split happened" true (List.length f.Ir.blocks >= 2);
  Alcotest.(check bool) "eq4 holds" true (Cfg_prep.check_func f);
  let r, _ = Interp.run_fresh m ~entry:"f" ~args:[ 9L ] in
  Alcotest.(check (option int64)) "semantics" (Some 0L) r.Interp.ret

let test_cfg_prep_isolates_calls () =
  let m =
    Lower.compile
      "u32 g(u32 x) { return x + 1; }\n\
       u32 f(u32 x) { u32 a = x * 2; u32 b = g(a); u32 c = b * 3; return c; }"
  in
  ignore (Cfg_prep.run m);
  let f = Option.get (Ir.find_func m "f") in
  Alcotest.(check bool) "eq5 holds" true (Cfg_prep.check_func f);
  List.iter
    (fun (b : Ir.block) ->
      let calls =
        List.filter
          (fun (i : Ir.instr) ->
            match i.Ir.op with Ir.Call _ -> true | _ -> false)
          b.Ir.instrs
      in
      if calls <> [] then
        Alcotest.(check int) "call is alone" 1 (List.length (Ir.body_instrs b)))
    f.Ir.blocks

let squeeze src ~entry ~train =
  let m = Lower.compile src in
  ignore (Cfg_prep.run m);
  let profile = Profile.create () in
  let opts = { Interp.default_opts with profile = Some profile } in
  List.iter
    (fun args -> ignore (Interp.run_fresh ~opts m ~entry ~args))
    train;
  ignore (Squeezer.run m ~profile ~heuristic:Profile.Hmax);
  m

let test_compare_elim () =
  (* i stays below 40 during profiling, so `i < 1000` compares a squeezed
     8-bit variable against a constant that cannot fit the slice: the
     compare folds to true and control flow rides on the speculation. *)
  let src =
    "u32 f(u32 n) {\n\
     u32 s = 0;\n\
     u32 i = 0;\n\
     do { s += i & 7; i += 1; if (i >= n) break; } while (i < 1000);\n\
     return s; }"
  in
  let m = squeeze src ~entry:"f" ~train:[ [ 40L ] ] in
  let eliminated = Compare_elim.run m in
  ignore (Bs_opt.Constfold.run m);
  ignore (Bs_opt.Dce.run m);
  Verifier.verify_exn m;
  Alcotest.(check bool) "eliminated a compare" true (eliminated > 0);
  (* semantics preserved, including past the speculated range *)
  let reference = Lower.compile src in
  List.iter
    (fun n ->
      let e, _ = Interp.run_fresh reference ~entry:"f" ~args:[ n ] in
      let g, _ = Interp.run_fresh m ~entry:"f" ~args:[ n ] in
      Alcotest.(check (option int64))
        (Printf.sprintf "n=%Ld" n)
        e.Interp.ret g.Interp.ret)
    [ 1L; 40L; 200L; 999L; 5000L ]

let test_bitmask_elide () =
  (* and-0xFF feeding a speculative truncate becomes an exact truncate *)
  let src =
    "u32 tab[256];\n\
     u32 f(u32 n) {\n\
     u32 s = 0;\n\
     for (u32 i = 0; i < n; i += 1) {\n\
     u32 masked = (s * 31 + i) & 0xFF;\n\
     s += masked & 15;\n\
     }\n\
     return s & 0xFFFF; }"
  in
  let m = squeeze src ~entry:"f" ~train:[ [ 50L ] ] in
  let elided = Bitmask_elide.run m in
  Verifier.verify_exn m;
  Alcotest.(check bool) "elided something" true (elided > 0);
  (* all de-speculated truncates are now exact: they can never
     misspeculate, and behaviour is unchanged *)
  let reference = Lower.compile src in
  List.iter
    (fun n ->
      let e, _ = Interp.run_fresh reference ~entry:"f" ~args:[ n ] in
      let g, _ = Interp.run_fresh m ~entry:"f" ~args:[ n ] in
      Alcotest.(check (option int64))
        (Printf.sprintf "n=%Ld" n)
        e.Interp.ret g.Interp.ret)
    [ 0L; 50L; 400L ]

let test_ssa_repair () =
  (* diamond with an extra definition injected in one arm: uses below the
     join must observe a phi *)
  let f = Ir.create_func ~name:"r" ~params:[ ("c", 1) ] ~ret_width:32 in
  let b = Builder.create f in
  let entry = Ir.add_block f "entry" in
  let left = Ir.add_block f "left" in
  let right = Ir.add_block f "right" in
  let join = Ir.add_block f "join" in
  Builder.position_at_end b entry;
  let v =
    Builder.bin b Ir.Add ~width:32 (Ir.const ~width:32 1L) (Ir.const ~width:32 2L)
  in
  ignore (Builder.cbr b (Builder.value (Builder.param b 0)) ~if_true:left ~if_false:right);
  Builder.position_at_end b left;
  let alt =
    Builder.bin b Ir.Add ~width:32 (Ir.const ~width:32 10L) (Ir.const ~width:32 20L)
  in
  ignore (Builder.br b join);
  Builder.position_at_end b right;
  ignore (Builder.br b join);
  Builder.position_at_end b join;
  let use =
    Builder.bin b Ir.Add ~width:32 (Builder.value v) (Ir.const ~width:32 100L)
  in
  ignore (Builder.ret b (Some (Builder.value use)));
  (* inject: on the left path, v is redefined to alt; the use below the
     join reads v's value there, every block sealed *)
  let preds = Ir.preds_map f in
  let ssa =
    Ssa.create f ~preds:(Hashtbl.find preds) ~phi_name:(fun _ -> "v.rep")
  in
  List.iter (fun (b : Ir.block) -> Ssa.seal ssa b.Ir.bid) f.Ir.blocks;
  Ssa.write ssa ~block:entry.Ir.bid ~var:v.Ir.iid (Builder.value v);
  Ssa.write ssa ~block:left.Ir.bid ~var:v.Ir.iid (Builder.value alt);
  Ir.map_operands
    (fun o ->
      if o = Builder.value v then
        Ssa.read ssa ~block:join.Ir.bid ~var:v.Ir.iid ~width:32
      else o)
    use;
  Ssa.finish ssa;
  Verifier.check_func f;
  (* join must now start with a phi merging 30 and 3 *)
  let phi = List.find Ir.is_phi join.Ir.instrs in
  (match phi.Ir.op with
  | Ir.Phi incoming -> Alcotest.(check int) "two incomings" 2 (List.length incoming)
  | _ -> assert false);
  let m = { Ir.funcs = [ f ]; globals = [] } in
  let run c =
    let r, _ = Interp.run_fresh m ~entry:"r" ~args:[ c ] in
    Option.get r.Interp.ret
  in
  Alcotest.(check int64) "left path" 130L (run 1L);
  Alcotest.(check int64) "right path" 103L (run 0L)

(* Squeeze generated programs 1-300 under MAX, AVG and MIN, calling
   [check seed f] on every function of each result. *)
let iter_squeezed check =
  for seed = 1 to 300 do
    let source = Bs_fuzz.Gen.program seed in
    List.iter
      (fun heuristic ->
        let m = Lower.compile source in
        ignore (Expander.run m Driver.bitspec_config.Driver.expander);
        ignore (Cfg_prep.run m);
        let profile =
          Driver.profile_module m
            ~train:[ (Bs_fuzz.Gen.entry, Bs_fuzz.Gen.train_args) ]
            ()
        in
        ignore (Squeezer.run m ~profile ~heuristic);
        List.iter (check seed) m.Ir.funcs)
      [ Profile.Hmax; Profile.Havg; Profile.Hmin ]
  done

(* The phis of [f] that [bad] picks, rendered with the program's seed. *)
let collect_phis acc bad seed (f : Ir.func) =
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun (i : Ir.instr) ->
          match i.Ir.op with
          | Ir.Phi incoming when bad i incoming ->
              acc :=
                Printf.sprintf "program %d: %s" seed (Printer.instr_str f i)
                :: !acc
          | _ -> ())
        b.Ir.instrs)
    f.Ir.blocks

let test_repair_phis_nontrivial () =
  (* Step ③'s phis (named "rep" or "<var>.rep") each merge two or more
     values, over 300 generated programs squeezed under MAX, AVG and MIN:
     the repair removes a phi that merges one value, and again each phi
     that becomes trivial when a phi it reads is removed.  A phi that
     the pruning of unreachable CFG_orig blocks leaves one incoming edge
     is the pruning's to fold ([test_no_single_edge_phi]). *)
  let trivial = ref [] in
  iter_squeezed
    (collect_phis trivial (fun i incoming ->
         (i.Ir.iname = "rep" || Filename.check_suffix i.Ir.iname ".rep")
         && List.length incoming >= 2
         &&
         let self = Ir.Var i.Ir.iid in
         List.length
           (List.sort_uniq compare
              (List.filter (( <> ) self) (List.map snd incoming)))
         = 1));
  Alcotest.(check (list string)) "trivial repair phis" [] (List.rev !trivial)

let test_no_single_edge_phi () =
  (* Pruning the CFG_orig blocks no handler reaches drops their edges
     from the phis; a phi left with one incoming edge is a copy, and
     the squeezer substitutes it away before later passes see it. *)
  let single = ref [] in
  iter_squeezed
    (collect_phis single (fun _ incoming -> List.length incoming = 1));
  Alcotest.(check (list string)) "single-edge phis" [] (List.rev !single)

let test_squeezer_memory_layout_untouched () =
  (* squeezing never changes array element sizes: a squeezed kernel and
     the original must leave identical memory behind *)
  let src =
    "u32 out[32];\n\
     u32 f(u32 n) { for (u32 i = 0; i < n; i += 1) out[i] = (i * 3) & 0xFF; return 0; }"
  in
  let reference = Lower.compile src in
  let m = squeeze src ~entry:"f" ~train:[ [ 16L ] ] in
  let _, mem_ref = Interp.run_fresh reference ~entry:"f" ~args:[ 32L ] in
  let _, mem_sq = Interp.run_fresh m ~entry:"f" ~args:[ 32L ] in
  for i = 0 to 31 do
    Alcotest.(check int64)
      (Printf.sprintf "out[%d]" i)
      (Memimage.get_global mem_ref reference ~name:"out" ~index:i)
      (Memimage.get_global mem_sq m ~name:"out" ~index:i)
  done

let test_handler_structure () =
  let src =
    "u32 f(u32 lim) { u32 x = 0; do { x += 1; } while (x <= lim); return x; }"
  in
  let m = squeeze src ~entry:"f" ~train:[ [ 60L ] ] in
  let f = Option.get (Ir.find_func m "f") in
  Alcotest.(check bool) "has regions" true (f.Ir.regions <> []);
  List.iter
    (fun (r : Ir.region) ->
      (* handler ends with an unconditional branch into CFG_orig *)
      let h = Ir.block f r.Ir.rhandler in
      (match (Ir.terminator h).Ir.op with
      | Ir.Br _ -> ()
      | _ -> Alcotest.fail "handler must end in Br");
      (* regions are single blocks in this implementation *)
      Alcotest.(check int) "single-block region" 1 (List.length r.Ir.rblocks);
      (* the handler is nobody's branch target *)
      List.iter
        (fun (b : Ir.block) ->
          Alcotest.(check bool) "handler not a target" false
            (List.mem r.Ir.rhandler (Ir.succs b)))
        f.Ir.blocks)
    f.Ir.regions

let test_driver_configs () =
  (* the three public configurations compile and agree on results *)
  let src = "u32 f(u32 n) { u32 s = 0; for (u32 i = 0; i < n; i += 1) s += i & 31; return s; }" in
  let results =
    List.map
      (fun cfg ->
        let c = Driver.compile ~config:cfg ~source:src ~train:[ ("f", [ 30L ]) ] () in
        (Driver.run_machine c ~entry:"f" ~args:[ 100L ]).Bs_sim.Machine.r0)
      [ Driver.baseline_config; Driver.bitspec_config; Driver.thumb_config ]
  in
  match results with
  | [ a; b; c ] ->
      Alcotest.(check int64) "baseline=bitspec" a b;
      Alcotest.(check int64) "baseline=thumb" a c
  | _ -> assert false

(* Property: compare elimination + bitmask elision never change results. *)
let prop_opts_preserve =
  QCheck.Test.make ~name:"BITSPEC optimisations preserve semantics" ~count:30
    QCheck.(pair (int_bound 300) (int_range 1 255))
    (fun (n, k) ->
      let src =
        Printf.sprintf
          "u32 f(u32 n) { u32 s = 0; u32 i = 0; do { s += (i * %d) & 0xFF; i += 1; if (i >= n) break; } while (i < 500); return s; }"
          k
      in
      let reference = Lower.compile src in
      let m = squeeze src ~entry:"f" ~train:[ [ 35L ] ] in
      ignore (Compare_elim.run m);
      ignore (Bitmask_elide.run m);
      ignore (Bs_opt.Constfold.run m);
      ignore (Bs_opt.Dce.run m);
      Verifier.verify_exn m;
      let e, _ = Interp.run_fresh reference ~entry:"f" ~args:[ Int64.of_int n ] in
      let g, _ = Interp.run_fresh m ~entry:"f" ~args:[ Int64.of_int n ] in
      e.Interp.ret = g.Interp.ret)

let suite =
  [ Alcotest.test_case "cfg_prep invariants on all workloads" `Slow
      test_cfg_prep_invariants;
    Alcotest.test_case "cfg_prep splits WAR blocks (eq 4)" `Quick
      test_cfg_prep_splits;
    Alcotest.test_case "cfg_prep isolates calls (eq 5)" `Quick
      test_cfg_prep_isolates_calls;
    Alcotest.test_case "compare elimination (§3.2.4)" `Quick test_compare_elim;
    Alcotest.test_case "bitmask elision (RQ3)" `Quick test_bitmask_elide;
    Alcotest.test_case "SSA repair at joins" `Quick test_ssa_repair;
    Alcotest.test_case "SSA repair leaves no trivial phi" `Slow
      test_repair_phis_nontrivial;
    Alcotest.test_case "memory layout untouched" `Quick
      test_squeezer_memory_layout_untouched;
    Alcotest.test_case "handler structure (§3.1.1)" `Quick test_handler_structure;
    Alcotest.test_case "driver configurations agree" `Quick test_driver_configs;
    QCheck_alcotest.to_alcotest prop_opts_preserve;
    Alcotest.test_case "squeezing leaves no single-edge phi" `Slow
      test_no_single_edge_phi ]
