open Bs_support
open Bitspec

(* Differential fuzzing: a thin driver over the Bs_fuzz subsystem (the
   generator, oracle, reducer and campaign live in lib/fuzz; this file
   only asserts properties of them).

   Covered here:
   - random programs agree across every build configuration (the oracle
     returns [Agree] on a clean compiler);
   - [Driver.try_compile] is total, including on corrupted input;
   - adversarial front-end input (100k-deep nesting, out-of-range
     literals) yields structured diagnostics, not a blown host stack;
   - the planted-bug self-test: with a forced miscompile injected, a
     bounded campaign detects it and the reducer shrinks the crasher to a
     handful of lines that still reproduce the same bucket;
   - equal seeds give bit-identical campaigns;
   - every reproducer in test/corpus/ replays into its recorded bucket;
   - fixed miscompiles stay fixed;
   - a program that traps agrees by the trap's kind, and one whose
     reference run overflows the interpreter's stack is skipped. *)

let check_seed seed =
  let source = Bs_fuzz.Gen.program seed in
  let args = [ Bs_fuzz.Gen.entry_arg seed ] in
  match Bs_fuzz.Oracle.run ~source ~entry:Bs_fuzz.Gen.entry ~args () with
  | Bs_fuzz.Oracle.Agree _ -> true
  | Bs_fuzz.Oracle.Skip _ -> true (* no ground truth: vacuous *)
  | Bs_fuzz.Oracle.Crash _ as v ->
      QCheck.Test.fail_reportf "seed %d: %s\n%s" seed
        (Bs_fuzz.Oracle.describe v) source

let prop_fuzz =
  QCheck.Test.make ~name:"random programs agree across all builds" ~count:60
    QCheck.(int_bound 1_000_000)
    check_seed

(* Robustness: [Driver.try_compile] is total.  For any generated program —
   including ones corrupted mid-stream to exercise the lexer, parser and
   typechecker error paths — it must return [Ok] or [Error diags], never
   raise.  Ok results must carry a program; Error results at least one
   error-severity diagnostic. *)
let try_compile_total seed =
  let rng = Rng.create (Int64.of_int (seed + 777)) in
  let source = Bs_fuzz.Gen.corrupt rng (Bs_fuzz.Gen.program seed) in
  match
    Driver.try_compile ~config:Driver.bitspec_config ~source
      ~train:[ (Bs_fuzz.Gen.entry, Bs_fuzz.Gen.train_args) ] ()
  with
  | Ok c -> Array.length c.Driver.program.Bs_backend.Asm.code > 0
  | Error diags -> Diag.errors diags <> []
  | exception e ->
      QCheck.Test.fail_reportf "try_compile raised %s on:\n%s"
        (Printexc.to_string e) source

let prop_try_compile_total =
  QCheck.Test.make ~name:"try_compile never raises"
    ~count:80
    QCheck.(int_bound 1_000_000)
    try_compile_total

(* a few pinned seeds so failures reproduce deterministically in CI *)
let test_pinned_seeds () =
  List.iter
    (fun seed ->
      Alcotest.(check bool) (Printf.sprintf "seed %d" seed) true (check_seed seed))
    [ 1; 2; 3; 42; 1234; 99999; 424242; 7777777 ]

(* --- adversarial front-end input --------------------------------------- *)

(* Nesting far past any reasonable program: the parser must refuse with a
   structured Parse diagnostic instead of a host Stack_overflow. *)
let test_adversarial_nesting () =
  let deep_parens =
    "u32 f(u32 p) { return " ^ String.make 100_000 '(' ^ "1"
    ^ String.make 100_000 ')' ^ "; }"
  in
  let deep_unary = "u32 f(u32 p) { return " ^ String.make 100_000 '~' ^ "1; }" in
  let deep_blocks =
    "u32 f(u32 p) { " ^ String.make 100_000 '{' ^ String.make 100_000 '}'
    ^ " return p; }"
  in
  let huge_literal = "u32 f(u32 p) { return 99999999999999999999999999; }" in
  List.iter
    (fun (name, source) ->
      match
        Driver.try_compile ~config:Driver.bitspec_config ~source
          ~train:[ ("f", [ 1L ]) ] ()
      with
      | Ok _ -> Alcotest.failf "%s: expected a front-end rejection" name
      | Error diags ->
          let errs = Diag.errors diags in
          Alcotest.(check bool) (name ^ ": has error diag") true (errs <> []);
          List.iter
            (fun (d : Diag.t) ->
              Alcotest.(check string) (name ^ ": parse phase") "parse"
                (Diag.phase_name d.Diag.phase))
            errs
      | exception e ->
          Alcotest.failf "%s: raised %s" name (Printexc.to_string e))
    [ ("parens", deep_parens); ("unary", deep_unary);
      ("blocks", deep_blocks); ("literal", huge_literal) ]

(* --- planted-bug self-test --------------------------------------------- *)

let miscompile_f =
  { Driver.fault_pass = Driver.Fault_miscompile; fault_func = "f" }

(* With a silent miscompile forced into every compile, a 30-trial
   campaign must catch it, and the reducer must shrink the first crasher
   to <= 20 lines that land in the same bucket when replayed. *)
let test_planted_miscompile () =
  let t = Bs_fuzz.Fuzz.run ~plant:miscompile_f ~seed:1 ~trials:30 () in
  Alcotest.(check bool) "campaign caught the miscompile" true
    (t.Bs_fuzz.Fuzz.crashes <> []);
  let c = List.hd t.Bs_fuzz.Fuzz.crashes in
  let lines = Bs_fuzz.Reduce.line_count c.Bs_fuzz.Fuzz.reduced in
  Alcotest.(check bool)
    (Printf.sprintf "reduced to %d lines (<= 20)" lines)
    true (lines <= 20);
  let key = Bucket.key c.Bs_fuzz.Fuzz.bucket in
  match
    Bs_fuzz.Oracle.run ~plant:miscompile_f ~source:c.Bs_fuzz.Fuzz.reduced
      ~entry:Bs_fuzz.Gen.entry ~args:c.Bs_fuzz.Fuzz.args ()
  with
  | Bs_fuzz.Oracle.Crash { bucket; _ } ->
      Alcotest.(check string) "reduced reproducer lands in the same bucket"
        key (Bucket.key bucket)
  | v ->
      Alcotest.failf "reduced reproducer did not crash: %s"
        (Bs_fuzz.Oracle.describe v)

(* Reduction preserves the bucket for arbitrary seeds, not just the
   campaign's pick (the reducer's predicate enforces it; this checks the
   plumbing end to end, including that reduction never grows a program). *)
let prop_reduce_preserves_bucket =
  QCheck.Test.make ~name:"reduction preserves the crash bucket" ~count:5
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let source = Bs_fuzz.Gen.program ~size:6 seed in
      let args = [ Bs_fuzz.Gen.entry_arg seed ] in
      let oracle s =
        Bs_fuzz.Oracle.run ~plant:miscompile_f ~source:s
          ~entry:Bs_fuzz.Gen.entry ~args ()
      in
      match oracle source with
      | Bs_fuzz.Oracle.Agree _ | Bs_fuzz.Oracle.Skip _ ->
          true (* this seed's miscompile is input-invisible: vacuous *)
      | Bs_fuzz.Oracle.Crash { bucket; _ } ->
          let key = Bucket.key bucket in
          let pred s =
            match oracle s with
            | Bs_fuzz.Oracle.Crash { bucket = b; _ } -> Bucket.key b = key
            | _ -> false
          in
          let reduced = Bs_fuzz.Reduce.run ~pred source in
          pred reduced
          && Bs_fuzz.Reduce.line_count reduced
             <= Bs_fuzz.Reduce.line_count source)

(* Equal seeds must yield bit-identical campaigns (report and all). *)
let test_campaign_deterministic () =
  let run () =
    Bs_fuzz.Fuzz.run ~plant:miscompile_f ~reduce:false ~seed:9 ~trials:12 ()
  in
  let a = run () and b = run () in
  Alcotest.(check string) "reports identical" (Bs_fuzz.Fuzz.report a)
    (Bs_fuzz.Fuzz.report b);
  Alcotest.(check (list int)) "crash seeds identical"
    (List.map (fun c -> c.Bs_fuzz.Fuzz.tseed) a.Bs_fuzz.Fuzz.crashes)
    (List.map (fun c -> c.Bs_fuzz.Fuzz.tseed) b.Bs_fuzz.Fuzz.crashes)

(* --- corpus replay ----------------------------------------------------- *)

(* Every reproducer under test/corpus/ must land in its recorded bucket.
   (dune copies the corpus next to the test binary; see test/dune.) *)
let test_corpus_replay () =
  let files = Bs_fuzz.Corpus.list_dir "corpus" in
  Alcotest.(check bool) "corpus is not empty" true (files <> []);
  List.iter
    (fun path ->
      match Bs_fuzz.Corpus.load path with
      | None, _ -> Alcotest.failf "%s: no metadata header" path
      | Some m, source -> (
          match Bs_fuzz.Oracle.replay m source with
          | Some key, _ ->
              Alcotest.(check string)
                (Filename.basename path ^ ": bucket")
                m.Bs_fuzz.Corpus.bucket_key key
          | None, description ->
              Alcotest.failf "%s: did not reproduce (%s)" path description))
    files

(* Compare elimination once folded [a0 < 2754] to true in CFG_orig on
   the strength of the truncate that had just misspeculated: h0's region
   is entered at the function entry, so under the SIR predecessor
   relation it dominates its own handler.  h0(131070) then added a0 on
   the original path: 131226 against the reference's 156.  (Reduced
   from fuzz seed 12, trial seed 774650633.) *)
let compare_elim_orig_source =
  {|u32 wide[8];
u32 acc = 0;
u32 gw = 65535;
u32 h0(u32 a0) {
  if (gw < ((a0 & 255) + 1)) {
    for (u32 v1 = 0; v1 < 8; v1 += 1) {
    }
  }
  if (a0 < 2754) acc += a0;
}
u32 f(u32 p) {
  wide[(h0(140)) & 7] = 00;
  p += h0((gw + gw));
  for (u32 v2 = 0; v2 < 2; v2 += 1) {
  }
  return (acc + p ^ p) & 0xFFFFFF;
}
|}

let test_compare_elim_orig () =
  match
    Bs_fuzz.Oracle.run ~source:compare_elim_orig_source ~entry:"f"
      ~args:[ 777L ] ~train:[ ("f", [ 17L ]) ] ()
  with
  | Bs_fuzz.Oracle.Agree _ -> ()
  | v -> Alcotest.fail (Bs_fuzz.Oracle.describe v)

(* Programs that trap: the reference and every build must stop on the
   same kind of trap.  Nothing the generator makes traps. *)
let oracle_verdict source ~args ~train =
  Bs_fuzz.Oracle.describe
    (Bs_fuzz.Oracle.run ~source ~entry:"run" ~args ~train:[ ("run", train) ]
       ())

let test_trapping_programs_agree () =
  List.iter
    (fun (what, source, args, train, expected) ->
      Alcotest.(check string) what expected
        (oracle_verdict source ~args ~train))
    [ ("division by zero", "u32 run(u32 n) { return 100 / n; }", [ 0L ],
       [ 5L ], "agree: trap div0");
      ("remainder by zero", "u32 run(u32 n) { return 100 % n; }", [ 0L ],
       [ 5L ], "agree: trap div0");
      ("load off the image",
       "u8 buf[4];\nu32 run(u32 n) { return buf[n * 100000000]; }", [ 1L ],
       [ 0L ], "agree: trap memory-fault");
      ("store off the image",
       "u8 buf[4];\nu32 run(u32 n) { buf[n * 100000000] = 7; return 0; }",
       [ 1L ], [ 0L ], "agree: trap memory-fault") ]

(* The interpreter traps past call depth 100 000 to protect the host
   stack; the machine's stack has no such limit and finishes this run
   (result 150000, 3.75 M instructions).  Like a reference that runs out
   of fuel, the reference trap is no ground truth. *)
let test_reference_stack_overflow_skips () =
  match
    Bs_fuzz.Oracle.run
      ~source:"u32 f(u32 n) { if (n == 0) return 0; return f(n - 1) + 1; }"
      ~entry:"f" ~args:[ 150000L ] ~train:[ ("f", [ 3L ]) ] ()
  with
  | Bs_fuzz.Oracle.Skip _ -> ()
  | v -> Alcotest.fail (Bs_fuzz.Oracle.describe v)

let suite =
  [ Alcotest.test_case "pinned fuzz seeds" `Quick test_pinned_seeds;
    QCheck_alcotest.to_alcotest prop_fuzz;
    QCheck_alcotest.to_alcotest prop_try_compile_total;
    Alcotest.test_case "adversarial nesting rejects cleanly" `Quick
      test_adversarial_nesting;
    Alcotest.test_case "planted miscompile is caught and minimized" `Quick
      test_planted_miscompile;
    QCheck_alcotest.to_alcotest prop_reduce_preserves_bucket;
    Alcotest.test_case "campaigns are seed-deterministic" `Quick
      test_campaign_deterministic;
    Alcotest.test_case "corpus reproducers replay" `Quick test_corpus_replay;
    Alcotest.test_case "compare elim never folds in CFG_orig" `Quick
      test_compare_elim_orig;
    Alcotest.test_case "trapping programs agree by the trap's kind" `Quick
      test_trapping_programs_agree;
    Alcotest.test_case "a reference stack overflow is skipped" `Quick
      test_reference_stack_overflow_skips ]
