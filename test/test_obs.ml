open Bitspec
open Bs_workloads

(* Tests for the observability layer: deterministic span traces under an
   injected clock, Chrome-JSON well-formedness, remark-stream stability
   across job counts, and misspeculation attribution summing to the
   simulators' misspec counters. *)

(* A clock that ticks one second per read — timestamps become the event
   sequence numbers, so span ordering tests are exact. *)
let ticking_clock () =
  let t = ref (-1.0) in
  fun () ->
    t := !t +. 1.0;
    !t

let shape_of_events evs =
  List.map
    (fun (e : Bs_obs.Trace.event) ->
      ( e.name,
        (match e.ph with
        | Bs_obs.Trace.B -> "B"
        | E -> "E"
        | I -> "I"
        | S -> "s"
        | T -> "t"
        | F -> "f"),
        e.ts ))
    evs

let test_span_nesting () =
  Bs_obs.Trace.enable ~clock:(ticking_clock ()) ();
  Bs_obs.Trace.with_span "outer" (fun () ->
      Bs_obs.Trace.with_span "inner" (fun () -> ()));
  Bs_obs.Trace.disable ();
  Alcotest.(check (list (triple string string (float 0.0))))
    "nested B/E order with deterministic timestamps"
    [ ("outer", "B", 0.0); ("inner", "B", 1.0); ("inner", "E", 2.0);
      ("outer", "E", 3.0) ]
    (shape_of_events (Bs_obs.Trace.events ()));
  Alcotest.(check (list (triple string (float 0.0) int)))
    "phase table folds balanced pairs in first-begin order"
    [ ("outer", 3.0, 1); ("inner", 1.0, 1) ]
    (Bs_obs.Trace.phase_table ());
  Bs_obs.Trace.reset ()

let test_span_exception () =
  Bs_obs.Trace.enable ~clock:(ticking_clock ()) ();
  (try Bs_obs.Trace.with_span "boom" (fun () -> failwith "boom") with
  | Failure _ -> ());
  Bs_obs.Trace.disable ();
  Alcotest.(check (list (triple string string (float 0.0))))
    "end event lands even when the body raises"
    [ ("boom", "B", 0.0); ("boom", "E", 1.0) ]
    (shape_of_events (Bs_obs.Trace.events ()));
  Bs_obs.Trace.reset ()

let count_sub sub s =
  let n = String.length sub and m = String.length s in
  let c = ref 0 in
  for i = 0 to m - n do
    if String.sub s i n = sub then incr c
  done;
  !c

let test_chrome_json_balanced () =
  Bs_obs.Trace.enable ~clock:(ticking_clock ()) ();
  Bs_obs.Trace.with_span "a" (fun () ->
      Bs_obs.Trace.with_span ~args:[ ("k", "v\"quoted\"") ] "b" (fun () -> ());
      Bs_obs.Trace.instant "mark");
  Bs_obs.Trace.disable ();
  let json = Bs_obs.Trace.to_chrome_json () in
  Bs_obs.Trace.reset ();
  Alcotest.(check int)
    "as many begin as end events"
    (count_sub "\"ph\":\"B\"" json)
    (count_sub "\"ph\":\"E\"" json);
  Alcotest.(check int) "two spans" 2 (count_sub "\"ph\":\"B\"" json);
  Alcotest.(check int) "one instant" 1 (count_sub "\"ph\":\"i\"" json);
  Alcotest.(check bool) "quotes in args are escaped" true
    (count_sub "v\\\"quoted\\\"" json = 1)

(* --------------------------------------------------------------------- *)

let crc = Registry.find "CRC32"

(* Direct driver compile (bypassing the compile cache) so each call
   regenerates its remark stream from scratch. *)
let compile_crc () =
  Driver.compile ~config:Driver.bitspec_config ~source:crc.Workload.source
    ~setup:crc.Workload.train.Workload.setup
    ~train:[ (crc.Workload.entry, crc.Workload.train.Workload.args) ] ()

let remark_strings (c : Driver.compiled) =
  List.map Bs_obs.Remark.to_string c.Driver.remarks

let starts_with p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let test_remark_stream () =
  let c = compile_crc () in
  let r = remark_strings c in
  Alcotest.(check bool) "remarks are emitted" true (r <> []);
  Alcotest.(check bool) "a squeeze remark is present" true
    (List.exists (starts_with "squeezed") r);
  Alcotest.(check (list string))
    "stream is canonically sorted"
    (List.map Bs_obs.Remark.to_string
       (List.sort Bs_obs.Remark.compare c.Driver.remarks))
    r

let test_remark_jobs_identity () =
  let seq = remark_strings (compile_crc ()) in
  let par =
    Bs_exec.Pool.map ~jobs:4 (fun () -> remark_strings (compile_crc ()))
      (Array.make 4 ())
  in
  Array.iter
    (Alcotest.(check (list string)) "remarks identical under jobs=4" seq)
    par

(* --------------------------------------------------------------------- *)

let sum_counts l = List.fold_left (fun acc (_, n) -> acc + n) 0 l

let test_misspec_attribution_machine () =
  let c = compile_crc () in
  let r =
    Driver.run_machine ~setup:(crc.Workload.test.Workload.setup c.Driver.ir) c
      ~entry:crc.Workload.entry ~args:crc.Workload.test.Workload.args
  in
  let misspecs = r.Bs_sim.Machine.ctr.Bs_sim.Counters.misspecs in
  Alcotest.(check bool) "CRC32 misspeculates under BITSPEC" true (misspecs > 0);
  Alcotest.(check int) "per-pc counts sum to the misspec counter" misspecs
    (sum_counts r.Bs_sim.Machine.misspec_pcs);
  let sites = Experiment.misspec_sites c r in
  Alcotest.(check int) "site histogram sums to the misspec counter" misspecs
    (sum_counts sites);
  Alcotest.(check bool) "every site is attributed to a source line" true
    (List.for_all (fun ((fn, _, line), _) -> fn <> "?" && line > 0) sites)

let suite =
  [ Alcotest.test_case "span nesting under injected clock" `Quick
      test_span_nesting;
    Alcotest.test_case "span end survives exceptions" `Quick
      test_span_exception;
    Alcotest.test_case "chrome JSON is balanced and escaped" `Quick
      test_chrome_json_balanced;
    Alcotest.test_case "remark stream is sorted and non-empty" `Quick
      test_remark_stream;
    Alcotest.test_case "remarks identical at jobs=1 and jobs=4" `Quick
      test_remark_jobs_identity;
    Alcotest.test_case "machine misspec attribution totals" `Quick
      test_misspec_attribution_machine ]
