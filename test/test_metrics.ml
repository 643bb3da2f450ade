open Bitspec
open Bs_support
module M = Bs_obs.Metrics

(* Tests for the metrics registry: quantile estimates stay within one
   bucket ratio of the exact rank statistic for arbitrary observation
   sequences, counters are exact under a multi-domain increment hammer,
   the snapshot serialisation is deterministic (sorted, byte-identical
   across identical runs, independent of registration order), and a
   server round trip reports exactly the requests that were issued. *)

(* --- quantile bucket bound (qcheck) ------------------------------------ *)

(* Exact rank statistic, same definition the estimator targets: the
   ceil(q*n)-th smallest observation (1-based, clamped to [1, n]). *)
let exact_quantile sorted q =
  let n = Array.length sorted in
  let rank = max 1 (min n (int_of_float (Float.ceil (q *. float_of_int n)))) in
  sorted.(rank - 1)

let prop_quantile_bounds =
  QCheck.Test.make
    ~name:"histogram quantiles are within one bucket of exact" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 300) (float_range 0.0 100_000.0))
    (fun vals ->
      M.reset ();
      let h = M.histogram "test_quantile_ms" in
      List.iter (M.observe h) vals;
      let sorted = Array.of_list vals in
      Array.sort compare sorted;
      let n = List.length vals in
      if M.histogram_count h <> n then
        QCheck.Test.fail_reportf "count %d <> %d" (M.histogram_count h) n;
      List.iter
        (fun q ->
          let exact = exact_quantile sorted q in
          let est = M.quantile h q in
          (* never below the true quantile... *)
          if est +. 1e-9 < exact then
            QCheck.Test.fail_reportf "p%.0f estimate %g below exact %g"
              (q *. 100.) est exact;
          (* ...and at most one bucket ratio above it (or the first
             bucket's upper bound, for values under the floor) *)
          let ceiling = Float.max (exact *. M.bucket_ratio) M.bucket_floor in
          if est > ceiling +. (1e-9 *. Float.max 1.0 exact) then
            QCheck.Test.fail_reportf "p%.0f estimate %g above bound %g"
              (q *. 100.) est ceiling)
        [ 0.5; 0.9; 0.99 ];
      true)

(* --- concurrent exactness ---------------------------------------------- *)

let test_concurrent_exactness () =
  M.reset ();
  let c = M.counter "test_hammer_total" in
  let g = M.gauge "test_hammer_gauge" in
  let h = M.histogram "test_hammer_ms" in
  let per_domain () =
    for _ = 1 to 50_000 do M.inc c done;
    for _ = 1 to 10_000 do M.inc ~by:3 c done;
    for _ = 1 to 25_000 do M.add_gauge g 1.0 done;
    for i = 1 to 10_000 do M.observe h (float_of_int (i mod 7)) done
  in
  let ds = Array.init 4 (fun _ -> Domain.spawn per_domain) in
  Array.iter Domain.join ds;
  Alcotest.(check int) "counter exact under 4 domains"
    (4 * (50_000 + (3 * 10_000)))
    (M.counter_value c);
  Alcotest.(check (float 0.0)) "gauge adds exact" 100_000.0 (M.gauge_value g);
  Alcotest.(check int) "histogram count exact" 40_000 (M.histogram_count h)

(* --- deterministic snapshot serialisation ------------------------------ *)

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go 0

(* One fixed unit of work against the registry.  [order] swaps the
   registration order of two fresh names to show the snapshot does not
   depend on it (the output is sorted by name). *)
let snapshot_run order =
  M.reset ();
  let names =
    if order then [ "zz_det_test"; "aa_det_test" ]
    else [ "aa_det_test"; "zz_det_test" ]
  in
  let cs = List.map (fun n -> M.counter n ~labels:[ ("k", "v") ]) names in
  List.iteri (fun i c -> M.inc ~by:(i + 7) c) (List.sort compare cs);
  M.set_gauge (M.gauge "det_test_gauge") 2.5;
  let h = M.histogram "det_test_ms" in
  List.iter (M.observe h) [ 0.4; 1.7; 12.0; 12.0; 250.0 ];
  Jsonx.to_string (M.snapshot_json ())

let test_snapshot_deterministic () =
  let a = snapshot_run false in
  let b = snapshot_run true in
  Alcotest.(check string) "identical runs serialise byte-identically" a b;
  match (find_sub a "aa_det_test", find_sub a "zz_det_test") with
  | Some ia, Some iz ->
      Alcotest.(check bool) "entries sorted by name" true (ia < iz)
  | _ -> Alcotest.fail "registered test counters missing from snapshot"

(* --- serve round trip: stats counters == issued requests --------------- *)

let bench_crc =
  { Service.b_workload = "CRC32"; b_arch = Driver.Bitspec_arch;
    b_heuristic = Bs_interp.Profile.Hmax; b_no_expander = false }

let rq id op =
  { Service.rq_id = id; rq_op = op; rq_deadline_ms = None; rq_fuel = None;
    rq_chaos = None }

(* Sum of a named counter across all its label sets in a snapshot. *)
let counter_total snapshot name =
  match Option.bind (Jsonx.member "counters" snapshot) Jsonx.get_list with
  | None -> Alcotest.fail "snapshot has no counters section"
  | Some cells ->
      List.fold_left
        (fun acc cell ->
          if Jsonx.mem_string "name" cell = Some name then
            acc + Option.value ~default:0 (Jsonx.mem_int "value" cell)
          else acc)
        0 cells

let histogram_count_of snapshot name =
  match Option.bind (Jsonx.member "histograms" snapshot) Jsonx.get_list with
  | None -> Alcotest.fail "snapshot has no histograms section"
  | Some cells -> (
      let hit =
        List.find_opt
          (fun cell ->
            Jsonx.mem_string "name" cell = Some name
            && Jsonx.mem_string "labels" cell = Some "")
          cells
      in
      match hit with
      | None -> Alcotest.fail (name ^ " histogram missing from snapshot")
      | Some cell -> Option.value ~default:(-1) (Jsonx.mem_int "count" cell))

let test_serve_stats_counts () =
  M.reset ();
  Compile_cache.reset ();
  let t = Server.start { Server.default_config with Server.jobs = 2 } in
  Fun.protect
    ~finally:(fun () -> Server.stop t)
    (fun () ->
      (match (Server.submit_wait t (rq 1 Service.Ping)).Service.rs_status with
      | Service.Pong -> ()
      | s -> Alcotest.fail ("ping answered " ^ Service.status_name s));
      let n_bench = 6 in
      for i = 1 to n_bench do
        match
          (Server.submit_wait t (rq (i + 1) (Service.Bench bench_crc)))
            .Service.rs_status
        with
        | Service.Done _ -> ()
        | s ->
            Alcotest.fail
              (Printf.sprintf "bench %d answered %s" i (Service.status_name s))
      done;
      let hr = Server.health t in
      Alcotest.(check bool) "healthy after clean run" true
        hr.Service.hr_ok;
      let st = Server.stats t in
      (* st_served covers every answered request, the ping included;
         the metric counters below cover bench requests only *)
      Alcotest.(check int) "server counted every answered request"
        (n_bench + 1) st.Service.st_served;
      let snap = st.Service.st_metrics in
      Alcotest.(check int) "outcome counters sum to issued bench requests"
        n_bench
        (counter_total snap "serve_requests_total");
      Alcotest.(check int) "every bench request was admitted" n_bench
        (counter_total snap "serve_accepted_total");
      Alcotest.(check int) "latency histogram saw every bench request"
        n_bench
        (histogram_count_of snap "serve_request_ms"))

let suite =
  [ QCheck_alcotest.to_alcotest prop_quantile_bounds;
    Alcotest.test_case "counters are exact under a 4-domain hammer" `Quick
      test_concurrent_exactness;
    Alcotest.test_case "snapshot serialisation is deterministic" `Quick
      test_snapshot_deterministic;
    Alcotest.test_case "serve round trip: stats match issued requests" `Slow
      test_serve_stats_counts ]
