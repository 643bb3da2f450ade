open Bs_support
open Bs_interp
open Bs_sim
open Bs_workloads
open Bitspec

(* Robustness: fail-fast pass failures, structured diagnostics, unified
   out-of-fuel outcomes, and the fault-injection campaign machinery. *)

(* A two-function program: [mix] is called from the squeezable hot loop in
   [f].  Compiler faults are injected into [mix]. *)
let two_func_source =
  "u8 buf[64];\n\
   u32 mix(u32 x) {\n\
   \  u32 s = 0;\n\
   \  for (u32 i = 0; i < 8; i += 1) { s += (x >> i) & 1; }\n\
   \  return s;\n\
   }\n\
   u32 f(u32 n) {\n\
   \  u32 acc = 0;\n\
   \  for (u32 i = 0; i < n; i += 1) {\n\
   \    acc = (acc + mix(buf[i & 63]) + (i & 255)) & 0xFFFF;\n\
   \  }\n\
   \  return acc;\n\
   }\n"

(* A planted fault stops the compile with the failing pass's diagnostic,
   naming the function; [try_compile] returns exactly that diagnostic. *)
let check_pass_failure pass expected_code =
  let pass_fault = { Driver.fault_pass = pass; fault_func = "mix" } in
  let d =
    match
      Driver.compile ~pass_fault ~config:Driver.bitspec_config
        ~source:two_func_source ~train:[ ("f", [ 60L ]) ] ()
    with
    | exception Driver.Failed d -> d
    | _ -> Alcotest.fail "a failing pass must stop the compile"
  in
  Alcotest.(check bool) "error severity" true (Diag.is_error d);
  Alcotest.(check string) "diagnostic code" expected_code d.Diag.code;
  Alcotest.(check (option string)) "diagnostic names the function"
    (Some "mix") d.Diag.func;
  Alcotest.(check string) "Printexc renders the diagnostic"
    (Diag.to_string d) (Printexc.to_string (Driver.Failed d));
  match
    Driver.try_compile ~pass_fault ~config:Driver.bitspec_config
      ~source:two_func_source ~train:[ ("f", [ 60L ]) ] ()
  with
  | Error ds ->
      Alcotest.(check (list string)) "try_compile returns that diagnostic"
        [ Diag.to_string d ] (List.map Diag.to_string ds)
  | Ok _ -> Alcotest.fail "try_compile compiled past a failing pass"

let test_squeeze_failure () =
  check_pass_failure Driver.Fault_squeeze "BS-SQZ-01"

let test_regalloc_failure () =
  check_pass_failure Driver.Fault_regalloc "BS-RA-01"

(* Fail-fast, once the strict mode and now the only policy: the failing
   pass is the last one to start.  Squeezing [mix] raises, so neither [f]
   nor any later pass (compare elimination through assembly) runs. *)
let test_strict_fails_fast () =
  let pass_fault =
    { Driver.fault_pass = Driver.Fault_squeeze; fault_func = "mix" }
  in
  Bs_obs.Trace.enable ();
  let outcome =
    Fun.protect ~finally:Bs_obs.Trace.disable (fun () ->
        match
          Driver.compile ~pass_fault ~config:Driver.bitspec_config
            ~source:two_func_source ~train:[ ("f", [ 60L ]) ] ()
        with
        | exception Driver.Failed d -> Some d.Diag.code
        | _ -> None)
  in
  let begun =
    List.filter_map
      (fun (e : Bs_obs.Trace.event) ->
        if e.ph = Bs_obs.Trace.B then
          Some
            (match List.assoc_opt "fn" e.args with
            | Some fn -> e.name ^ " " ^ fn
            | None -> e.name)
        else None)
      (Bs_obs.Trace.events ())
  in
  Bs_obs.Trace.reset ();
  Alcotest.(check (option string)) "the squeezer's failure stops the compile"
    (Some "BS-SQZ-01") outcome;
  Alcotest.(check (list string)) "no pass starts after the failing one"
    [ "frontend"; "expander"; "CFG preparation"; "profile"; "squeeze mix" ]
    begun

(* A failed compile is memoised like a compiled one: a second request for
   its key re-raises the same diagnostic without compiling again. *)
let test_cache_memoises_failure () =
  let d =
    Diag.error ~code:"BS-SQZ-01" ~phase:Diag.Squeeze ~func:"mix" "planted"
  in
  let runs = ref 0 in
  let request () =
    match
      Compile_cache.compile ~key:"test|resilience|failed-compile" (fun () ->
          incr runs;
          raise (Driver.Failed d))
    with
    | exception Driver.Failed d' -> Diag.to_string d'
    | _ -> Alcotest.fail "a failed compile was served as a success"
  in
  let first = request () in
  let second = request () in
  Alcotest.(check int) "the compile ran once" 1 !runs;
  Alcotest.(check string) "the first request raises the diagnostic"
    (Diag.to_string d) first;
  Alcotest.(check string) "the second request re-raises it"
    (Diag.to_string d) second

let test_try_compile_frontend_error () =
  match
    Driver.try_compile ~config:Driver.bitspec_config
      ~source:"u32 f( { return }" ~train:[] ()
  with
  | Error (d :: _) ->
      Alcotest.(check bool) "error severity" true (Diag.is_error d);
      Alcotest.(check bool) "parse phase" true (d.Diag.phase = Diag.Parse);
      Alcotest.(check bool) "has a source line" true (d.Diag.line <> None)
  | Error [] -> Alcotest.fail "Error with no diagnostics"
  | Ok _ -> Alcotest.fail "garbage source compiled"

let test_diag_format () =
  let d =
    Diag.error ~code:"BS-SQZ-01" ~phase:Diag.Squeeze ~func:"crc32" "boom"
  in
  let s = Diag.to_string d in
  List.iter
    (fun part ->
      Alcotest.(check bool) (part ^ " in rendering") true
        (Str_exists.contains s part))
    [ "error"; "BS-SQZ-01"; "squeeze"; "crc32"; "boom" ]

(* Out-of-fuel is one structured outcome across both execution engines. *)
let test_fuel_outcome_unified () =
  let source = "u32 f() { u32 x = 1; while (x) { x = (x | 1); } return x; }" in
  let m = Bs_frontend.Lower.compile source in
  let ir, _ =
    Interp.run_fresh ~opts:{ Interp.default_opts with fuel = 500 } m
      ~entry:"f" ~args:[]
  in
  let c =
    Driver.compile ~config:Driver.baseline_config ~source ~train:[] ()
  in
  let mr = Driver.run_machine ~fuel:500 c ~entry:"f" ~args:[] in
  Alcotest.(check bool) "interp ran out of fuel" true
    (ir.Interp.outcome = Outcome.Out_of_fuel);
  Alcotest.(check bool) "machine ran out of fuel" true
    (mr.Bs_sim.Machine.outcome = Outcome.Out_of_fuel);
  Alcotest.(check bool) "same structured outcome" true
    (ir.Interp.outcome = mr.Bs_sim.Machine.outcome)

(* --- fault-injection campaigns ----------------------------------------- *)

(* A small, fast workload for campaign tests: byte traffic through a
   squeezed accumulator loop, every value fitting an 8-bit slice. *)
let tiny_workload : Workload.t =
  let source =
    "u8 buf[64];\n\
     u32 f(u32 n) {\n\
     \  u32 acc = 0;\n\
     \  for (u32 i = 0; i < n; i += 1) {\n\
     \    u32 x = buf[i & 63];\n\
     \    acc = ((acc + x) ^ (i & 15)) & 255;\n\
     \  }\n\
     \  return acc;\n\
     }\n"
  in
  let input args : Workload.input =
    { Workload.args;
      setup =
        (fun m mem ->
          Workload.fill_bytes (Rng.create 5L) m mem ~name:"buf" ~count:64) }
  in
  { Workload.name = "tiny"; description = "campaign test workload";
    source; entry = "f"; train = input [ 60L ]; test = input [ 400L ];
    alt = input [ 100L ]; narrow_source = None }

let verdict_names (c : Campaign.t) =
  List.map
    (fun (t : Faultinject.trial) -> Faultinject.describe_trial t)
    c.Campaign.trials

let test_campaign_deterministic () =
  let run () = Campaign.run ~trials:25 ~seed:7L tiny_workload in
  let a = run () and b = run () in
  Alcotest.(check int) "trial count" 25 (List.length a.Campaign.trials);
  Alcotest.(check (list string)) "same seed, same trials, bit for bit"
    (verdict_names a) (verdict_names b)

let test_campaign_seed_sensitivity () =
  let a = Campaign.run ~trials:25 ~seed:7L tiny_workload in
  let b = Campaign.run ~trials:25 ~seed:8L tiny_workload in
  Alcotest.(check bool) "different seeds, different faults" true
    (verdict_names a <> verdict_names b)

let test_campaign_detects_faults () =
  (* stringsearch packs many 8-bit slices per register, so some register
     flips land in a sibling slice the misspeculation hardware then
     catches; seed 5 yields two such faults within 20 trials *)
  let w = Registry.find "stringsearch" in
  let c = Campaign.run ~trials:20 ~seed:5L w in
  let s = Faultinject.summarize c.Campaign.trials in
  let total =
    List.fold_left (fun acc (_, n) -> acc + n) 0 (Faultinject.summary_rows s)
  in
  Alcotest.(check int) "every trial classified" 20 total;
  Alcotest.(check bool)
    (Printf.sprintf "misspeculation hardware detects some flips (%s)"
       (String.concat ", "
          (List.map
             (fun (n, k) -> Printf.sprintf "%s=%d" n k)
             (Faultinject.summary_rows s))))
    true
    (List.exists
       (fun (t : Faultinject.trial) ->
         match t.Faultinject.verdict with
         | Faultinject.Detected _ -> true
         | _ -> false)
       c.Campaign.trials);
  (* the report renders the table and the detected examples *)
  let r = Campaign.report c in
  List.iter
    (fun part ->
      Alcotest.(check bool) (part ^ " in report") true
        (Str_exists.contains r part))
    [ "stringsearch"; "seed 5"; "verdict"; "detected";
      "misspeculation hardware" ]

let suite =
  [ Alcotest.test_case "squeeze fault stops the compile" `Quick
      test_squeeze_failure;
    Alcotest.test_case "regalloc fault stops the compile" `Quick
      test_regalloc_failure;
    Alcotest.test_case "strict mode fails fast" `Quick test_strict_fails_fast;
    Alcotest.test_case "cache memoises a failed compile" `Quick
      test_cache_memoises_failure;
    Alcotest.test_case "try_compile: front-end errors become diagnostics"
      `Quick test_try_compile_frontend_error;
    Alcotest.test_case "diagnostic rendering" `Quick test_diag_format;
    Alcotest.test_case "out-of-fuel outcome unified across engines" `Quick
      test_fuel_outcome_unified;
    Alcotest.test_case "campaign: fixed seed is deterministic" `Quick
      test_campaign_deterministic;
    Alcotest.test_case "campaign: seed varies the faults" `Quick
      test_campaign_seed_sensitivity;
    Alcotest.test_case "campaign: injected faults detected by hardware"
      `Quick test_campaign_detects_faults ]
