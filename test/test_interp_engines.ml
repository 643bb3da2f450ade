open Bs_support
open Bitspec
open Bs_interp

(* Interpreter engine equivalence.

   The closure-compiled execution engine ([Interp.Compiled]) exists for
   host speed only: for any module, any input, with or without
   profiling, it must produce results byte-identical to the tree-walking
   reference ([Interp.Tree]) — return value, outcome, trap message, step
   and call counts, misspeculation totals and per-site attribution, the
   final memory image, and every number the profiler records (per-
   variable min/max/sum/count and both module-wide histograms).

   Each random seed is differenced on two modules: the pristine lowering
   (plain IR, the oracle's reference path) and the Driver-compiled
   bitspec IR (squeezed code with speculative regions, exercising the
   misspeculation guard exits). *)

(* One run's complete observable state; a trap is part of [o_outcome]. *)
type obs = {
  o_ret : int64 option;
  o_outcome : string;
  o_steps : int;
  o_misspecs : int;
  o_calls : int;
  o_sites : ((string * string * int) * int) list;
  o_profile :
    ((string * int * int * int * int * int) list * int list * int list)
    option;
  o_mem : Memimage.snapshot option;
}

(* Everything the profiler recorded, in a canonical order. *)
let profile_obs (p : Profile.t) =
  let vars = ref [] in
  Profile.iter_vars p (fun ~func ~iid s ->
      vars :=
        (func, iid, s.Profile.s_min, s.Profile.s_max, s.Profile.s_sum,
         s.Profile.s_count)
        :: !vars);
  (List.sort compare !vars,
   Array.to_list p.Profile.req_hist,
   Array.to_list p.Profile.prog_hist)

let observe ?setup ~engine ~profiled (m : Bs_ir.Ir.modul) ~entry ~args =
  let profile = if profiled then Some (Profile.create ()) else None in
  let opts = { Interp.default_opts with Interp.engine; profile } in
  let r, mem = Interp.run_fresh ~opts ?setup m ~entry ~args in
  { o_ret = r.Interp.ret;
    o_outcome = Outcome.to_string r.Interp.outcome;
    o_steps = r.Interp.steps;
    o_misspecs = r.Interp.misspecs;
    o_calls = r.Interp.calls;
    o_sites = r.Interp.misspec_sites;
    o_profile = Option.map profile_obs profile;
    o_mem = Some (Memimage.snapshot mem) }

(* First component where two observations disagree, or [None]. *)
let first_diff a b =
  let i64 o = Option.fold ~none:"(none)" ~some:Int64.to_string o in
  if a.o_outcome <> b.o_outcome then
    Some (Printf.sprintf "outcome: %s vs %s" a.o_outcome b.o_outcome)
  else if a.o_ret <> b.o_ret then
    Some (Printf.sprintf "ret: %s vs %s" (i64 a.o_ret) (i64 b.o_ret))
  else if a.o_steps <> b.o_steps then
    Some (Printf.sprintf "steps: %d vs %d" a.o_steps b.o_steps)
  else if a.o_calls <> b.o_calls then
    Some (Printf.sprintf "calls: %d vs %d" a.o_calls b.o_calls)
  else if a.o_misspecs <> b.o_misspecs then
    Some (Printf.sprintf "misspecs: %d vs %d" a.o_misspecs b.o_misspecs)
  else if a.o_sites <> b.o_sites then Some "misspec-site attribution"
  else if a.o_profile <> b.o_profile then Some "profile contents"
  else
    match (a.o_mem, b.o_mem) with
    | Some x, Some y when not (Memimage.snapshot_equal x y) ->
        Some "final memory image"
    | _ -> None

(* Difference [Compiled] against [Tree] on one module, with and without
   a profiler attached. *)
let check_module ?setup what (m : Bs_ir.Ir.modul) ~entry ~args =
  List.iter
    (fun profiled ->
      let reference =
        observe ?setup ~engine:Interp.Tree ~profiled m ~entry ~args
      in
      let o = observe ?setup ~engine:Interp.Compiled ~profiled m ~entry ~args in
      match first_diff reference o with
      | None -> ()
      | Some d ->
          QCheck.Test.fail_reportf
            "%s (%s profiling): compiled diverges from tree on %s" what
            (if profiled then "with" else "without")
            d)
    [ false; true ];
  true

let check_seed seed =
  let source = Bs_fuzz.Gen.program seed in
  match
    Driver.try_compile ~config:Driver.bitspec_config ~source
      ~train:[ (Bs_fuzz.Gen.entry, Bs_fuzz.Gen.train_args) ] ()
  with
  | Ok c ->
      let args = [ Bs_fuzz.Gen.entry_arg seed ] in
      let pristine = Bs_frontend.Lower.compile source in
      ignore
        (check_module
           (Printf.sprintf "seed %d, pristine IR" seed)
           pristine ~entry:Bs_fuzz.Gen.entry ~args);
      check_module
        (Printf.sprintf "seed %d, bitspec IR" seed)
        c.Driver.ir ~entry:Bs_fuzz.Gen.entry ~args
  | Error _ -> true (* input that fails to compile: vacuous *)

let prop_interp_engines_agree =
  QCheck.Test.make
    ~name:"interpreter engines are byte-identical on random programs"
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

(* --- corpus reproducers are interp-engine-invariant ---------------------- *)

(* Every non-power reproducer in test/corpus/ gets the full oracle
   treatment under each interpreter engine; the rendered verdict
   (bucket, details, values) must not depend on the engine.  This
   differences the engines through the whole compile-and-compare
   pipeline, including planted-fault reproducers.  (Power reproducers
   replay machine-vs-machine and never consult the interpreter, so the
   engine choice cannot reach them.)  Each reproducer's IR is also
   differenced directly, profiler attached. *)
let test_corpus_engine_invariant () =
  let files = Bs_fuzz.Corpus.list_dir "corpus" in
  Alcotest.(check bool) "corpus is not empty" true (files <> []);
  List.iter
    (fun path ->
      match Bs_fuzz.Corpus.load path with
      | None, _ -> Alcotest.failf "%s: no metadata header" path
      | Some { Bs_fuzz.Corpus.power = Some _; _ }, _ -> ()
      | Some m, source ->
          let train = [ (m.Bs_fuzz.Corpus.entry, m.Bs_fuzz.Corpus.train) ] in
          let describe interp_engine =
            Bs_fuzz.Oracle.describe
              (Bs_fuzz.Oracle.run ?plant:m.Bs_fuzz.Corpus.fault ~train
                 ~interp_engine ~source ~entry:m.Bs_fuzz.Corpus.entry
                 ~args:m.Bs_fuzz.Corpus.args ())
          in
          Alcotest.(check string)
            (Printf.sprintf "%s verdict" (Filename.basename path))
            (describe Interp.Tree)
            (describe Interp.Compiled);
          (* and the raw interpreter observation on the pristine IR *)
          match Bs_frontend.Lower.compile source with
          | exception _ -> () (* rejected source: oracle covered it *)
          | pristine ->
              Alcotest.(check bool)
                (Printf.sprintf "%s pristine IR" (Filename.basename path))
                true
                (check_module
                   (Filename.basename path)
                   pristine ~entry:m.Bs_fuzz.Corpus.entry
                   ~args:m.Bs_fuzz.Corpus.args))
    files

(* --- workloads: the numbers behind the paper's figures ------------------- *)

(* The real benchmarks go through [check_module] too — they are the
   programs whose profiles shape every figure, so engine divergence
   there would silently skew the evaluation.  One representative each of
   the table-driven, recursive and arithmetic-heavy families keeps the
   test quick. *)
let test_workload_equivalence () =
  List.iter
    (fun name ->
      match
        List.find_opt
          (fun (w : Bs_workloads.Workload.t) -> w.name = name)
          Bs_workloads.Registry.all
      with
      | None -> Alcotest.failf "workload %s missing from registry" name
      | Some w ->
          let m = Bs_frontend.Lower.compile w.source in
          ignore (Expander.run m Expander.default);
          let pi = w.Bs_workloads.Workload.train in
          Alcotest.(check bool) name true
            (check_module ~setup:(pi.Bs_workloads.Workload.setup m) name m
               ~entry:w.entry ~args:pi.Bs_workloads.Workload.args))
    [ "CRC32"; "bitcount"; "qsort" ]

(* --- the compiled engine's register-only loop allocates nothing -------- *)

(* A loop of arithmetic, compares, casts, [?:] and if/else, with no loads,
   stores, calls or division, must run under [Compiled] without touching
   the minor heap: every operand read, operation and commit stays
   unboxed, and entering a block through its phis allocates nothing.
   The per-iteration cost is the difference between two trip counts, so
   compilation, image and result set-up cancel out.  Profiling is off
   (a profiled commit passes a boxed value to its recorder). *)
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

let minor_words_per_iteration (m : Bs_ir.Ir.modul) =
  let run n =
    let mem = Memimage.create m in
    let opts = { Interp.default_opts with Interp.engine = Interp.Compiled } in
    let w0 = Gc.minor_words () in
    ignore (Interp.exec ~opts m ~entry:"run" ~args:[ Int64.of_int n ] mem);
    Gc.minor_words () -. w0
  in
  let w1000 = run 1000 in
  (run 2000 -. w1000) /. 1000.

(* The front end lowers [?:] through control flow, so a [Select] comes
   from hand-built IR: [run(n)] sums [(i & 1) != 0 ? i : 3] over [i < n]. *)
let select_loop () =
  let open Bs_ir in
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
    Driver.compile ~config:Driver.bitspec_config ~source:alloc_kernel
      ~train:[ ("run", [ 2000L ]) ] ()
  in
  List.iter
    (fun (what, m) ->
      Alcotest.(check (float 0.))
        (what ^ ": minor words per iteration") 0.
        (minor_words_per_iteration m))
    [ ("pristine IR", pristine); ("bitspec IR", c.Driver.ir);
      ("select loop", select_loop ()) ];
  (* no generated program has a [Select]: difference the engines here *)
  Alcotest.(check bool) "select loop: engines agree" true
    (check_module "select loop" (select_loop ()) ~entry:"run" ~args:[ 101L ])

(* A run that traps reports it as its outcome with the trap's kind, and
   the two engines return the same record: the trap and no activity. *)
let test_traps_are_outcomes () =
  List.iter
    (fun (kind, source, entry, args) ->
      let m = Bs_frontend.Lower.compile source in
      (* the front end resolves every call: drop the callee to get an
         unknown one *)
      let m =
        { m with
          Bs_ir.Ir.funcs =
            List.filter (fun f -> f.Bs_ir.Ir.fname <> "gone") m.Bs_ir.Ir.funcs }
      in
      let run engine =
        fst
          (Interp.run_fresh
             ~opts:{ Interp.default_opts with Interp.engine }
             m ~entry ~args)
      in
      let tree = run Interp.Tree and compiled = run Interp.Compiled in
      Alcotest.(check bool) (kind ^ ": tree = compiled") true (tree = compiled);
      match tree.Interp.outcome with
      | Outcome.Trapped t ->
          Alcotest.(check string) kind kind (Outcome.trap_name t);
          Alcotest.(check bool) (kind ^ ": no activity") true
            (tree.Interp.ret = None && tree.Interp.steps = 0
            && tree.Interp.calls = 0 && tree.Interp.misspec_sites = [])
      | o -> Alcotest.failf "%s: ended %s" kind (Outcome.to_string o))
    [ ("div0", "u32 run(u32 n) { return 100 / n; }", "run", [ 0L ]);
      ("div0", "u32 run(u32 n) { return 100 % n; }", "run", [ 0L ]);
      ("memory-fault",
       "u8 buf[4];\nu32 run(u32 n) { return buf[n * 100000000]; }", "run",
       [ 1L ]);
      ("memory-fault",
       "u8 buf[4];\nu32 run(u32 n) { buf[n * 100000000] = 7; return 0; }",
       "run", [ 1L ]);
      ("unknown-entry", "u32 run(u32 n) { return n; }", "nope", [ 1L ]);
      ("unknown-function",
       "u32 gone(u32 x) { return x; }\nu32 run(u32 n) { return gone(n); }",
       "run", [ 1L ]);
      ("stack-overflow", "u32 run(u32 n) { return run(n + 1); }", "run",
       [ 0L ]) ]

let suite =
  [ Alcotest.test_case "pinned interp-engine seeds" `Quick test_pinned_seeds;
    QCheck_alcotest.to_alcotest prop_interp_engines_agree;
    Alcotest.test_case "corpus verdicts are interp-engine-invariant" `Quick
      test_corpus_engine_invariant;
    Alcotest.test_case "paper workloads are interp-engine-invariant" `Quick
      test_workload_equivalence;
    Alcotest.test_case "a register-only loop allocates nothing" `Quick
      test_register_loop_allocates_nothing;
    Alcotest.test_case "a trap is the same outcome under either engine"
      `Quick test_traps_are_outcomes ]
