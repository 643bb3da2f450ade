open Bitspec
open Bs_workloads

(* Tests for the parallel evaluation engine: the domain pool's ordering
   and failure semantics, the single-flight memo table, the
   content-addressed compile cache, and the byte-identity of parallel
   campaigns with their sequential runs. *)

let test_pool_order () =
  let input = Array.init 100 (fun i -> i) in
  let f x = (x * x) + 1 in
  let seq = Array.map f input in
  List.iter
    (fun jobs ->
      Alcotest.(check (array int))
        (Printf.sprintf "jobs=%d preserves order" jobs)
        seq
        (Bs_exec.Pool.map ~jobs f input))
    [ 1; 2; 4; 7 ];
  Alcotest.(check (list int)) "map_list preserves order"
    (List.init 25 f)
    (Bs_exec.Pool.map_list ~jobs:4 f (List.init 25 (fun i -> i)))

exception Boom of int

let test_pool_exception () =
  (* the lowest-index failure must win, whatever the schedule *)
  let f x = if x = 10 || x = 20 then raise (Boom x) else x in
  List.iter
    (fun jobs ->
      match Bs_exec.Pool.map ~jobs f (Array.init 64 (fun i -> i)) with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom n ->
          Alcotest.(check int)
            (Printf.sprintf "jobs=%d rethrows lowest index" jobs)
            10 n)
    [ 1; 4 ]

let test_pool_run_all () =
  let hit = Array.make 50 false in
  Bs_exec.Pool.run_all ~jobs:4
    (Array.init 50 (fun i () -> hit.(i) <- true));
  Alcotest.(check bool) "every thunk ran" true (Array.for_all Fun.id hit)

let test_memo_single_flight () =
  let m : (int, int) Bs_exec.Memo.t = Bs_exec.Memo.create () in
  let computed = Atomic.make 0 in
  let get () =
    Bs_exec.Memo.find_or_add m 7 (fun () ->
        Atomic.incr computed;
        42)
  in
  (* hammer the same key from several domains: one computation, shared *)
  let vs = Bs_exec.Pool.map ~jobs:4 (fun _ -> get ()) (Array.make 16 ()) in
  Alcotest.(check bool) "all callers see the value" true
    (Array.for_all (fun v -> v = 42) vs);
  Alcotest.(check int) "computed exactly once" 1 (Atomic.get computed);
  Alcotest.(check int) "one miss" 1 (Bs_exec.Memo.misses m);
  Alcotest.(check int) "the rest were hits" 15 (Bs_exec.Memo.hits m)

let test_memo_failure_memoised () =
  (* computations are deterministic, so a failure is memoised on its
     first run: later requests rethrow without running the thunk *)
  let m : (string, int) Bs_exec.Memo.t = Bs_exec.Memo.create () in
  let runs = ref 0 in
  let get () =
    Bs_exec.Memo.find_or_add m "k" (fun () ->
        incr runs;
        failwith "deterministic failure")
  in
  for _ = 1 to 4 do
    match get () with
    | _ -> Alcotest.fail "expected failure"
    | exception Failure _ -> ()
  done;
  Alcotest.(check int) "ran once" 1 !runs;
  Alcotest.(check int) "one miss" 1 (Bs_exec.Memo.misses m);
  Alcotest.(check int) "the rest were hits" 3 (Bs_exec.Memo.hits m);
  Alcotest.(check bool) "failed key is memoised" true
    (Bs_exec.Memo.mem m "k")

let test_compile_cache_hits () =
  (* every Experiment compile goes through the content-addressed cache:
     a second identical run must not compile again *)
  Compile_cache.reset ();
  let w = Registry.find "CRC32" in
  let m1 = Experiment.run Driver.baseline_config w in
  let after_first = Compile_cache.misses () in
  let m2 = Experiment.run Driver.baseline_config w in
  Alcotest.(check bool) "at least one real compile" true (after_first >= 1);
  Alcotest.(check int) "second run compiles nothing"
    after_first (Compile_cache.misses ());
  Alcotest.(check bool) "second run hits the cache" true
    (Compile_cache.hits () >= after_first);
  Alcotest.(check int64) "cached compile, same checksum"
    m1.Experiment.checksum m2.Experiment.checksum

let test_campaign_jobs_identical () =
  let w = Registry.find "CRC32" in
  let report jobs =
    Campaign.report ~max_examples:4
      (Campaign.run ~jobs ~trials:12 ~seed:9L w)
  in
  Alcotest.(check string) "inject: jobs=4 == jobs=1" (report 1) (report 4)

let test_fuzz_jobs_identical () =
  let report jobs =
    Bs_fuzz.Fuzz.report
      (Bs_fuzz.Fuzz.run ~reduce:false ~size:6 ~jobs ~seed:5 ~trials:12 ())
  in
  Alcotest.(check string) "fuzz: jobs=4 == jobs=1" (report 1) (report 4)

let suite =
  [ Alcotest.test_case "pool preserves order" `Quick test_pool_order;
    Alcotest.test_case "pool rethrows deterministically" `Quick
      test_pool_exception;
    Alcotest.test_case "run_all covers every thunk" `Quick test_pool_run_all;
    Alcotest.test_case "memo is single-flight" `Quick test_memo_single_flight;
    Alcotest.test_case "memo caches a failure on its first run" `Quick
      test_memo_failure_memoised;
    Alcotest.test_case "compile cache serves repeat compiles" `Quick
      test_compile_cache_hits;
    Alcotest.test_case "parallel inject is byte-identical" `Slow
      test_campaign_jobs_identical;
    Alcotest.test_case "parallel fuzz is byte-identical" `Slow
      test_fuzz_jobs_identical ]
