open Bs_support
open Bs_workloads

type target = In_process of Server.t | Connect of string

type cfg = {
  lg_seed : int64;
  lg_requests : int;
  lg_clients : int;
  lg_zipf_s : float;
  lg_deadline_ms : int option;
  lg_fuel : int option;
  lg_crash_every : int;
}

let default_cfg =
  { lg_seed = 42L; lg_requests = 200; lg_clients = 4; lg_zipf_s = 1.1;
    lg_deadline_ms = None; lg_fuel = None; lg_crash_every = 0 }

type summary = {
  sm_requests : int;
  sm_ok : int;
  sm_errors : int;
  sm_timeouts : int;
  sm_shed : int;
  sm_wall_s : float;
  sm_rps : float;
  sm_p50_ms : float;
  sm_p99_ms : float;
  sm_hit_rate : float;
  sm_shed_rate : float;
}

(* Four configuration variants per workload: the paper's main arch,
   the averaging heuristic, the expander ablation, and the baseline. *)
let variants =
  [ ("bitspec/max", Driver.Bitspec_arch, Bs_interp.Profile.Hmax, false);
    ("bitspec/avg", Driver.Bitspec_arch, Bs_interp.Profile.Havg, false);
    ("bitspec/max/noexp", Driver.Bitspec_arch, Bs_interp.Profile.Hmax, true);
    ("baseline/max", Driver.Baseline, Bs_interp.Profile.Hmax, false) ]

let cells =
  List.concat_map
    (fun name ->
      List.map
        (fun (vlabel, arch, heuristic, noexp) ->
          ( name ^ "/" ^ vlabel,
            { Service.b_workload = name; b_arch = arch;
              b_heuristic = heuristic; b_no_expander = noexp } ))
        variants)
    Registry.names

(* Zipfian sampler over the cell list: rank k gets weight 1/k^s. *)
let zipf_cdf s n =
  let w = Array.init n (fun i -> 1.0 /. Float.pow (float_of_int (i + 1)) s) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let sample_rank cdf u =
  let n = Array.length cdf in
  let rec bisect lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if cdf.(mid) < u then bisect (mid + 1) hi else bisect lo mid
  in
  min (n - 1) (bisect 0 (n - 1))

let plan cfg =
  let cells = Array.of_list cells in
  let cdf = zipf_cdf cfg.lg_zipf_s (Array.length cells) in
  let rng = Rng.create cfg.lg_seed in
  List.init cfg.lg_requests (fun i ->
      let idx = i + 1 in
      let _, bench = cells.(sample_rank cdf (Rng.float rng)) in
      let chaos =
        if cfg.lg_crash_every > 0 && idx mod cfg.lg_crash_every = 0 then
          Some Service.Crash
        else None
      in
      { Service.rq_id = idx; rq_op = Service.Bench bench;
        rq_deadline_ms = cfg.lg_deadline_ms; rq_fuel = cfg.lg_fuel;
        rq_chaos = chaos })

(* Rank-statistic quantile — the same definition Metrics uses for its
   estimates, so the cross-check's tolerance argument below is exact
   rather than fuzzy: the histogram estimate of a quantile q is
   min(upper bucket bound, max) of the bucket holding the ceil(q·n)-th
   smallest sample, hence exact <= estimate <= max(exact · bucket_ratio,
   bucket_floor). *)
let rank_quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let rank =
      max 1 (min n (int_of_float (Float.ceil (q *. float_of_int n))))
    in
    sorted.(rank - 1)

let summarize (pairs : (Service.request * Service.response) list) ~wall_s =
  let n = List.length pairs in
  let ok = ref 0 and errors = ref 0 and timeouts = ref 0 and shed = ref 0 in
  let hits = ref 0 in
  let lat = ref [] in
  List.iter
    (fun ((_ : Service.request), (rs : Service.response)) ->
      (match rs.Service.rs_status with
      | Service.Done _ ->
          incr ok;
          if rs.Service.rs_cached then incr hits
      | Service.Failed _ -> incr errors
      | Service.Timed_out -> incr timeouts
      | Service.Overloaded _ -> incr shed
      | Service.Pong | Service.Bye | Service.Stats_reply _
      | Service.Health_reply _ -> ());
      match rs.Service.rs_status with
      | Service.Overloaded _ -> ()  (* shed before any work: not a latency *)
      | _ -> lat := rs.Service.rs_ms :: !lat)
    pairs;
  let lat = Array.of_list !lat in
  Array.sort compare lat;
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  { sm_requests = n; sm_ok = !ok; sm_errors = !errors;
    sm_timeouts = !timeouts; sm_shed = !shed;
    sm_wall_s = wall_s;
    sm_rps = (if wall_s > 0.0 then float_of_int n /. wall_s else 0.0);
    sm_p50_ms = rank_quantile lat 0.50; sm_p99_ms = rank_quantile lat 0.99;
    sm_hit_rate = ratio !hits !ok; sm_shed_rate = ratio !shed n }

let run cfg target =
  if cfg.lg_requests < 0 then invalid_arg "Loadgen.run: negative requests";
  let clients = max 1 cfg.lg_clients in
  let reqs = Array.of_list (plan cfg) in
  let n = Array.length reqs in
  let results : Service.response option array = Array.make n None in
  let cursor = Atomic.make 0 in
  let issue_with call =
    let rec loop () =
      let i = Atomic.fetch_and_add cursor 1 in
      if i < n then begin
        results.(i) <- Some (call reqs.(i));
        loop ()
      end
    in
    loop ()
  in
  let client_body () =
    match target with
    | In_process srv -> issue_with (Server.submit_wait srv)
    | Connect socket ->
        let conn = Server.connect ~socket in
        Fun.protect
          ~finally:(fun () -> Server.close conn)
          (fun () -> issue_with (Server.call conn))
  in
  let t0 = Unix.gettimeofday () in
  let threads = List.init clients (fun _ -> Thread.create client_body ()) in
  List.iter Thread.join threads;
  let wall_s = Unix.gettimeofday () -. t0 in
  let pairs =
    Array.to_list
      (Array.mapi
         (fun i rs ->
           match rs with
           | Some rs -> (reqs.(i), rs)
           | None -> assert false (* every index was claimed and answered *))
         results)
  in
  (pairs, summarize pairs ~wall_s)

(* --- server-side view and reconciliation ------------------------------- *)

let server_stats target =
  let rq =
    { Service.rq_id = 0; rq_op = Service.Stats; rq_deadline_ms = None;
      rq_fuel = None; rq_chaos = None }
  in
  let rs =
    match target with
    | In_process srv -> Some (Server.submit_wait srv rq)
    | Connect socket -> (
        match Server.connect ~socket with
        | conn ->
            Fun.protect
              ~finally:(fun () -> Server.close conn)
              (fun () -> match Server.call conn rq with
                | rs -> Some rs
                | exception _ -> None)
        | exception Unix.Unix_error _ -> None)
  in
  match rs with
  | Some { Service.rs_status = Service.Stats_reply st; _ } -> Some st
  | _ -> None

type cross_check = {
  cc_client_count : int;
  cc_server_count : int;
  cc_client_p50 : float;
  cc_client_p99 : float;
  cc_server_p50 : float;
  cc_server_p99 : float;
  cc_count_ok : bool;
  cc_p50_ok : bool;
  cc_p99_ok : bool;
  cc_ok : bool;
}

let find_histogram metrics ~name =
  match Jsonx.member "histograms" metrics with
  | Some (Jsonx.Arr hs) ->
      List.find_opt
        (fun h ->
          Jsonx.mem_string "name" h = Some name
          && Jsonx.mem_string "labels" h = Some "")
        hs
  | _ -> None

(* Reconcile the server's own latency histogram against the client's
   collection of the same rs_ms values.  Counts must agree exactly
   (both sides count every non-shed bench response once; rs_ms
   round-trips bit-exactly through the JSON codec).  Quantiles must
   agree within one histogram bucket ratio (plus the bucket floor for
   sub-microsecond samples and a small absolute epsilon for float
   noise). *)
let cross_check (pairs : (Service.request * Service.response) list)
    (st : Service.server_stats) =
  let lat =
    List.filter_map
      (fun ((_ : Service.request), (rs : Service.response)) ->
        match rs.Service.rs_status with
        | Service.Overloaded _ -> None
        | _ -> Some rs.Service.rs_ms)
      pairs
  in
  let lat = Array.of_list lat in
  Array.sort compare lat;
  let client_count = Array.length lat in
  let client_p50 = rank_quantile lat 0.50 in
  let client_p99 = rank_quantile lat 0.99 in
  let server_count, server_p50, server_p99 =
    match find_histogram st.Service.st_metrics ~name:"serve_request_ms" with
    | Some h ->
        ( Option.value ~default:(-1) (Jsonx.mem_int "count" h),
          Option.value ~default:(-1.0) (Jsonx.mem_float "p50" h),
          Option.value ~default:(-1.0) (Jsonx.mem_float "p99" h) )
    | None -> (-1, -1.0, -1.0)
  in
  let eps = 1e-9 in
  let within exact est =
    est +. eps >= exact
    && est
       <= Float.max (exact *. Bs_obs.Metrics.bucket_ratio)
            Bs_obs.Metrics.bucket_floor
          +. eps
  in
  let count_ok = server_count = client_count in
  let p50_ok = within client_p50 server_p50 in
  let p99_ok = within client_p99 server_p99 in
  { cc_client_count = client_count; cc_server_count = server_count;
    cc_client_p50 = client_p50; cc_client_p99 = client_p99;
    cc_server_p50 = server_p50; cc_server_p99 = server_p99;
    cc_count_ok = count_ok; cc_p50_ok = p50_ok; cc_p99_ok = p99_ok;
    cc_ok = count_ok && p50_ok && p99_ok }

let canonical_log pairs =
  let sorted =
    List.sort
      (fun ((a : Service.request), _) (b, _) ->
        compare a.Service.rq_id b.Service.rq_id)
      pairs
  in
  List.map (fun (rq, rs) -> Service.canonical_line rq rs) sorted
