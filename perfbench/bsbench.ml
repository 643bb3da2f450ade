(* The BITSPEC benchmark executable.

   One process runs one named workload: a set-up, then a timed phase of
   at least 100 items, each checked against an independent reference.
   Untraced, it reports the end-to-end metrics.  Traced (--trace 1), it
   records spans around every public call it makes, switches on the
   program's own Bs_obs.Trace spans (Driver's compile phases), writes
   the spans as Chrome JSON and reports a per-layer table whose self
   times sum to the timed phase.

   The last line of standard output is one JSON object for run.py, which
   builds this executable, repeats the set-up for a median set-up time
   and prints the final record.  README.md in this directory explains
   why each workload exists and which layer should move which metric. *)

open Bitspec
open Bs_workloads
module Trace = Bs_obs.Trace
module Metrics = Bs_obs.Metrics
module Rng = Bs_support.Rng
module Outcome = Bs_support.Outcome
module Machine = Bs_sim.Machine
module Counters = Bs_sim.Counters
module Memimage = Bs_interp.Memimage
module Gen = Bs_fuzz.Gen
module Oracle = Bs_fuzz.Oracle

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Command line                                                         *)
(* ------------------------------------------------------------------ *)

type opts = {
  workload : string;
  seed : int;
  seconds : int;
  traced : bool;
  setup_only : bool;
  items : int option;          (* override the item count (smoke runs) *)
  out_dir : string;            (* Chrome trace output *)
  (* Input seeds.  paper-eval, serve and campaign measure a recorded
     input set and --seed only orders their items, so every seed does
     the same work; fuzz explores, so its campaign seed is --seed. *)
  fuzz_seed : int option;      (* fuzz campaign seed; default --seed *)
  plan_seed : int option;      (* Loadgen.plan seed; default Loadgen's, 42 *)
  fault_seed : int option;     (* campaign faults; default 1, as inject *)
  power_seed : int option;     (* campaign outages; default 1, as harvest *)
  verify_campaign : bool;      (* also compare against Campaign.run(_power) *)
}

let usage =
  "bsbench.exe --workload paper-eval|fuzz|serve|campaign [--seed N] \
   [--seconds S] [--trace 0|1] [--items N] [--setup-only] [--out DIR] \
   [--fuzz-seed N] [--plan-seed N] [--fault-seed N] [--power-seed N] \
   [--verify-campaign]"

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("bsbench: " ^ s);
      exit 2)
    fmt

let parse_args () =
  let o =
    ref
      { workload = ""; seed = 1; seconds = 10; traced = false;
        setup_only = false; items = None; out_dir = "."; fuzz_seed = None;
        plan_seed = None; fault_seed = None; power_seed = None;
        verify_campaign = false }
  in
  let int_of flag v =
    match int_of_string_opt v with
    | Some n -> n
    | None -> die "%s expects an integer, got %S" flag v
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> o := { !o with workload = v }; go rest
    | "--seed" :: v :: rest -> o := { !o with seed = int_of "--seed" v }; go rest
    | "--seconds" :: v :: rest ->
        o := { !o with seconds = max 1 (int_of "--seconds" v) }; go rest
    | "--trace" :: v :: rest ->
        o := { !o with traced = int_of "--trace" v <> 0 }; go rest
    | "--items" :: v :: rest ->
        o := { !o with items = Some (max 1 (int_of "--items" v)) }; go rest
    | "--out" :: v :: rest -> o := { !o with out_dir = v }; go rest
    | "--fuzz-seed" :: v :: rest ->
        o := { !o with fuzz_seed = Some (int_of "--fuzz-seed" v) }; go rest
    | "--plan-seed" :: v :: rest ->
        o := { !o with plan_seed = Some (int_of "--plan-seed" v) }; go rest
    | "--fault-seed" :: v :: rest ->
        o := { !o with fault_seed = Some (int_of "--fault-seed" v) }; go rest
    | "--power-seed" :: v :: rest ->
        o := { !o with power_seed = Some (int_of "--power-seed" v) }; go rest
    | "--setup-only" :: rest -> o := { !o with setup_only = true }; go rest
    | "--verify-campaign" :: rest ->
        o := { !o with verify_campaign = true }; go rest
    | a :: _ -> die "unexpected argument %S\nusage: %s" a usage
  in
  go (List.tl (Array.to_list Sys.argv));
  !o

(* ------------------------------------------------------------------ *)
(* Small helpers                                                        *)
(* ------------------------------------------------------------------ *)

let span = Trace.with_span

(* One slice of the interleaved host calibration: two fixed pure-OCaml
   loops that touch no repository code, about 0.7 ms each — integer
   arithmetic on an L1-resident array, then short-lived allocation on
   the minor heap of the workload's GC regime.  Returns the two times in
   ms.  On the reference host their sum followed the workloads' slow
   periods closely (correlation 0.87 to 0.97 over ten runs); a loop of
   random accesses over 8 MiB, tried beside them, followed them worse. *)
let calib_slice () =
  let a = Array.make 4096 0 in
  let x = ref 0x2545F491 in
  let t0 = now () in
  for i = 1 to 350_000 do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    let j = !x land 4095 in
    a.(j) <- a.(j) + i
  done;
  let t1 = now () in
  let acc = ref 0 in
  for _ = 1 to 100 do
    let l = List.init 500 (fun i -> (i, !x + i)) in
    acc := List.fold_left (fun s (i, v) -> s + i + (v land 7)) !acc l
  done;
  ignore (Sys.opaque_identity (a, !acc));
  let t2 = now () in
  ((t1 -. t0) *. 1000.0, (t2 -. t1) *. 1000.0)

let slice_ms (a, g) = a +. g

(* The median calibration slice on the reference host, a 2-vCPU Xeon
   VM with the benchmark pinned to one CPU.  A run divides its timings
   by [slowdown_of] its own median slice, so they read as if taken on
   the reference host.  Fixed: changing it rescales every figure the
   benchmark reports. *)
let calib_ref_ms = 1.35

(* Over slow periods of the reference host the workloads' times moved
   about 1.25 times as much as the median calibration slice, in log
   terms: fits over ten runs each of paper-eval, serve and campaign, in
   a fast and in a slow period, gave 1.18 to 1.36.  So a run's scale is
   (its median slice / the reference) ^ 1.25. *)
let host_elasticity = 1.25

let slowdown_of slice_ms = (slice_ms /. calib_ref_ms) ** host_elasticity

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Linear-interpolation percentile over a sorted array. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let rank = p *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = min (n - 1) (lo + 1) in
    let frac = rank -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)

let geomean = function
  | [] -> 0.0
  | l ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0.0 l
        /. float_of_int (List.length l))

let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.0
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
                float_of_int kb /. 1024.0)
        | _ -> scan ()
      in
      let v = scan () in
      close_in ic;
      v

let mode_of (c : Driver.compiled) =
  if c.Driver.config.Driver.arch = Driver.Bitspec_arch then Bs_isa.Isa.Bitspec
  else Bs_isa.Isa.Classic

(* A fresh memory image with the workload input written into it, as
   Driver.run_machine and the campaigns build one. *)
let fresh_image (c : Driver.compiled) (input : Workload.input) () =
  span "memimage" (fun () ->
      let mem = Memimage.create c.Driver.ir in
      input.Workload.setup c.Driver.ir mem;
      mem)

(* Driver.run_machine, made of its public parts so a traced run can
   split image set-up, the run loop and the energy fold. *)
let simulate (c : Driver.compiled) (w : Workload.t) : Experiment.metrics =
  let mem = fresh_image c w.Workload.test () in
  let r =
    span "machine" (fun () ->
        Machine.run
          ~config:
            { Machine.mode = mode_of c; fuel = 1_000_000_000; fault = None;
              power = None; engine = Machine.Jit }
          c.Driver.program mem ~entry:w.Workload.entry
          ~args:w.Workload.test.Workload.args)
  in
  span "memimage:recycle" (fun () -> Memimage.recycle mem);
  span "energy" (fun () -> Experiment.metrics_of_run r)

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)
(* ------------------------------------------------------------------ *)

(* What a prepared workload hands the timed-phase driver. *)
type prepared = {
  inputs : string;  (* names the input set; --seed only orders it *)
  n_items : int;
  clients : int;  (* concurrent closed-loop callers of [item] *)
  item : int -> (unit, string) result;
      (* run and check item [i]; [Error] counts as failed *)
  finish : unit -> finish;  (* after the timed phase *)
  stop : unit -> unit;      (* release threads/domains the set-up started *)
}

and finish = {
  exact : (string * string) list;
      (* deterministic counts: identical between traced and untraced runs
         and across runs of the same inputs *)
  energy_ratio : float;
  layer : (string * float) list;  (* workload-specific per-layer values *)
  service_ms : float option;
      (* serve: the worker's service time over the timed phase (ms) *)
}

type setup_ctx = {
  o : opts;
  mutable setup_failures : string list;
  mutable interp_steps : int;  (* traced runs: reference-run IR steps *)
}

let setup_fail ctx msg = ctx.setup_failures <- msg :: ctx.setup_failures

(* Item counts follow from --seconds alone, at a nominal rate measured on
   a 2-vCPU host, so runs of the same inputs do the same work anywhere
   and their exact counts compare. *)
let item_count o ~per_second =
  match o.items with
  | Some k -> k
  | None -> max 100 (per_second * o.seconds)

(* The reference interpreter's checksum (never the compiler under
   test).  Untraced, the set-up calls Experiment.reference_checksum; a
   traced run makes its calls itself (front end, then the interpreter)
   so the set-up table splits them and counts interpreter steps. *)
let reference ctx ?(interp_engine = Bs_interp.Interp.Compiled)
    (w : Workload.t) =
  if not ctx.o.traced then Experiment.reference_checksum ~interp_engine w
  else begin
    let m =
      span "frontend" (fun () -> Bs_frontend.Lower.compile w.Workload.source)
    in
    let opts = { Bs_interp.Interp.default_opts with engine = interp_engine } in
    let r, _ =
      span "interp" (fun () ->
          Bs_interp.Interp.run_fresh ~opts
            ~setup:(w.Workload.test.Workload.setup m)
            m ~entry:w.Workload.entry ~args:w.Workload.test.Workload.args)
    in
    ctx.interp_steps <- ctx.interp_steps + r.Bs_interp.Interp.steps;
    match r.Bs_interp.Interp.ret with
    | Some v -> Int64.logand v 0xFFFFFFFFL
    | None -> 0L
  end

(* --- paper-eval -------------------------------------------------------- *)

type profile_src = Train | Alt | Narrow

type cell = {
  c_w : Workload.t;  (* narrow cells carry the narrow source *)
  c_config : Driver.config;
  c_src : profile_src;
  c_kernel : string;
}

(* The 152 distinct cells bench/main.exe's figure sections compute:
   per kernel, baseline, BITSPEC MAX/AVG/MIN, no-speculation, expander
   off for both archs, MIN with CFG_orig first, alternate-input profile
   and Thumb (140); RQ3's two ablations on its four kernels (8); RQ7's
   narrow sources under both archs (4). *)
let paper_cells () =
  let b = Driver.bitspec_config and base = Driver.baseline_config in
  let h hh = { b with Driver.heuristic = hh } in
  let noexp = Expander.disabled in
  let per_kernel (w : Workload.t) =
    let cell ?(src = Train) config =
      { c_w = w; c_config = config; c_src = src; c_kernel = w.Workload.name }
    in
    [ cell base; cell b; cell (h Bs_interp.Profile.Havg);
      cell (h Bs_interp.Profile.Hmin);
      cell { b with Driver.speculate = false };
      cell { base with Driver.expander = noexp };
      cell { b with Driver.expander = noexp };
      cell { (h Bs_interp.Profile.Hmin) with Driver.orig_first = true };
      cell ~src:Alt b; cell Driver.thumb_config ]
  in
  let rq3 =
    List.concat_map
      (fun name ->
        let w = Registry.find name in
        List.map
          (fun config ->
            { c_w = w; c_config = config; c_src = Train; c_kernel = name })
          [ { b with Driver.compare_elim = false };
            { b with Driver.bitmask_elide = false } ])
      [ "dijkstra"; "blowfish"; "rijndael"; "CRC32" ]
  in
  let rq7 =
    List.concat_map
      (fun name ->
        let w = Registry.find name in
        match w.Workload.narrow_source with
        | None -> []
        | Some narrow ->
            let nw = { w with Workload.source = narrow } in
            List.map
              (fun config ->
                { c_w = nw; c_config = config; c_src = Narrow;
                  c_kernel = name })
              [ base; b ])
      [ "dijkstra"; "stringsearch" ]
  in
  List.concat_map per_kernel Registry.all @ rq3 @ rq7

(* Seeded Fisher-Yates: the seed orders the cells, the set is fixed. *)
let shuffle seed arr =
  let rng = Rng.create (Int64.of_int seed) in
  for i = Array.length arr - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- t
  done;
  arr

(* Pass 0 uses bench/main.exe's cache labels; a later pass [p] labels
   every compile "<label>#p", so it misses the compile cache, the
   profile memo and the simulation memo and repeats the cold work. *)
let cell_call c ~pass =
  let base =
    match c.c_src with
    | Train -> None
    | Alt -> Some "altprof"
    | Narrow -> Some "narrow"
  in
  let profile_tag =
    if pass = 0 then base
    else Some (Printf.sprintf "%s#%d" (Option.value base ~default:"train") pass)
  in
  let profile_input =
    match c.c_src with Alt -> Some c.c_w.Workload.alt | Train | Narrow -> None
  in
  (profile_input, profile_tag)

let paper_eval ctx : prepared =
  let o = ctx.o in
  (* bench/main.exe's throughput GC regime *)
  Gc.set
    { (Gc.get ()) with
      Gc.minor_heap_size = 8 * 1024 * 1024;
      Gc.space_overhead = 200 };
  let cells = shuffle o.seed (Array.of_list (paper_cells ())) in
  let ncells = Array.length cells in
  let refs = Hashtbl.create 16 in
  Array.iter
    (fun c ->
      let key = Compile_cache.source_key c.c_w.Workload.source in
      if not (Hashtbl.mem refs key) then
        Hashtbl.replace refs key (reference ctx c.c_w))
    cells;
  let passes = max 1 (o.seconds / 10) in
  let n =
    match o.items with
    | Some k -> min k (passes * ncells)
    | None -> passes * ncells
  in
  let results = Array.make n None in
  let item i =
    let pass = i / ncells and c = cells.(i mod ncells) in
    let w = c.c_w in
    let profile_input, profile_tag = cell_call c ~pass in
    let m =
      if o.traced then
        simulate
          (Experiment.compile_workload ?profile_input ?profile_tag
             c.c_config w)
          w
      else Experiment.run ?profile_input ?profile_tag c.c_config w
    in
    results.(i) <- Some m;
    let expected =
      Hashtbl.find refs (Compile_cache.source_key w.Workload.source)
    in
    let what () =
      Printf.sprintf "%s [%s] pass %d" c.c_kernel
        (Driver.config_tag c.c_config) pass
    in
    if m.Experiment.checksum <> expected then
      Error
        (Printf.sprintf "%s: checksum %Ld, reference %Ld" (what ())
           m.Experiment.checksum expected)
    else
      match if pass = 0 then None else results.(i mod ncells) with
      | Some (m0 : Experiment.metrics)
        when m0.Experiment.instrs <> m.Experiment.instrs
             || m0.Experiment.total_energy <> m.Experiment.total_energy ->
          Error (what () ^ ": differs from pass 0")
      | _ -> Ok ()
  in
  let finish () =
    let instrs = ref 0 in
    let energy = Hashtbl.create 32 in
    Array.iteri
      (fun i r ->
        match r with
        | None -> ()
        | Some (m : Experiment.metrics) ->
            let c = cells.(i mod ncells) in
            instrs := !instrs + m.Experiment.instrs;
            if c.c_src = Train then
              Hashtbl.replace energy
                (c.c_kernel, Driver.config_tag c.c_config)
                m.Experiment.total_energy)
      results;
    let ratios =
      List.filter_map
        (fun (w : Workload.t) ->
          match
            ( Hashtbl.find_opt energy
                (w.Workload.name, Driver.config_tag Driver.bitspec_config),
              Hashtbl.find_opt energy
                (w.Workload.name, Driver.config_tag Driver.baseline_config) )
          with
          | Some s, Some b when b > 0.0 -> Some (s /. b)
          | _ -> None)
        Registry.all
    in
    { exact = [ ("machine.instrs", string_of_int !instrs) ];
      energy_ratio = geomean ratios;
      layer = [ ("machine.instrs", float_of_int !instrs) ];
      service_ms = None }
  in
  (* a partial pass is a seed-dependent subset of the cells *)
  let inputs =
    if n mod ncells = 0 then "paper-cells"
    else Printf.sprintf "paper-cells-seed%d" o.seed
  in
  { inputs; n_items = n; clients = 1; item; finish; stop = ignore }

(* --- fuzz -------------------------------------------------------------- *)

(* A trial seed as Fuzz.run draws it from its campaign stream. *)
let draw_trial_seed rng = Int64.to_int (Int64.logand (Rng.next rng) 0x3FFFFFFFL)

(* The trial seeds `bitspecc fuzz --seed S` draws, in order. *)
let fuzz_trial_seeds seed n =
  let rng = Rng.create (Int64.of_int seed) in
  Array.init n (fun _ -> draw_trial_seed rng)

(* Warm-up programs come from a fixed stream, not from the campaign
   seed, so every seed's set-up does the same work and reports the same
   energy ratio. *)
let fuzz_warmups = 16
let fuzz_warmup_stream = 0x5EEDF00DL

let fuzz ctx : prepared =
  let o = ctx.o in
  let fseed = Option.value o.fuzz_seed ~default:o.seed in
  let n = item_count o ~per_second:18 in
  let seeds = fuzz_trial_seeds fseed n in
  let programs =
    Array.map (fun s -> (Gen.program s, [ Gen.entry_arg s ])) seeds
  in
  (* warm-up trials on seeds outside the timed set; their programs also
     give the workload's BITSPEC/BASELINE energy ratio *)
  let taken = Hashtbl.create n in
  Array.iter (fun s -> Hashtbl.replace taken s ()) seeds;
  let wrng = Rng.create fuzz_warmup_stream in
  let rec draw acc k =
    if k = 0 then List.rev acc
    else
      let s = draw_trial_seed wrng in
      if Hashtbl.mem taken s then draw acc k
      else begin
        Hashtbl.replace taken s ();
        draw (s :: acc) (k - 1)
      end
  in
  let warm = draw [] fuzz_warmups in
  let ratios =
    List.filter_map
      (fun s ->
        let source = Gen.program s and args = [ Gen.entry_arg s ] in
        (match
           span "oracle" (fun () ->
               Oracle.run ~source ~entry:Gen.entry ~args ())
         with
        | Oracle.Crash { details; _ } ->
            setup_fail ctx ("warm-up trial crashed: " ^ details)
        | Oracle.Agree _ | Oracle.Skip _ -> ());
        let energy config =
          match
            Driver.try_compile ~config ~source
              ~train:[ (Gen.entry, Gen.train_args) ] ()
          with
          | Error _ -> None
          | Ok c -> (
              match
                Driver.run_machine ~fuel:2_000_000 c ~entry:Gen.entry ~args
              with
              | r when r.Machine.outcome = Outcome.Finished ->
                  Some (Bs_energy.Energy.total (Bs_energy.Energy.of_result r))
              | _ -> None
              | exception (Machine.Sim_trap _ | Memimage.Fault _) -> None)
        in
        match (energy Driver.bitspec_config, energy Driver.baseline_config) with
        | Some s, Some b when b > 0.0 -> Some (s /. b)
        | _ -> None)
      warm
  in
  let agree = ref 0 and skip = ref 0 and crash = ref 0 in
  let item i =
    let source, args = programs.(i) in
    match
      span "oracle" (fun () ->
          Oracle.run ~source ~entry:Gen.entry ~args ())
    with
    | Oracle.Agree _ -> incr agree; Ok ()
    | Oracle.Skip _ -> incr skip; Ok ()
    | Oracle.Crash { details; _ } ->
        incr crash;
        Error (Printf.sprintf "trial seed %d: %s" seeds.(i) details)
  in
  let finish () =
    { exact =
        [ ("oracle.agree", string_of_int !agree);
          ("oracle.skip", string_of_int !skip);
          ("oracle.crash", string_of_int !crash) ];
      energy_ratio = geomean ratios;
      layer =
        [ ("oracle.agree", float_of_int !agree);
          ("oracle.skip", float_of_int !skip);
          ("oracle.crash", float_of_int !crash) ];
      service_ms = None }
  in
  { inputs = Printf.sprintf "fuzz-seed%d" fseed; n_items = n; clients = 1;
    item; finish; stop = ignore }

(* --- serve ------------------------------------------------------------- *)

let bench_label (b : Service.bench_req) =
  Service.op_label (Service.Bench b)

let serve ctx : prepared =
  let o = ctx.o in
  let pseed =
    Option.value o.plan_seed
      ~default:(Int64.to_int Loadgen.default_cfg.Loadgen.lg_seed)
  in
  let n = item_count o ~per_second:50 in
  let refs = Hashtbl.create 16 in
  List.iter
    (fun (w : Workload.t) ->
      Hashtbl.replace refs w.Workload.name (reference ctx w))
    Registry.all;
  let srv = Server.start { Server.default_config with Server.jobs = 1 } in
  let check (b : Service.bench_req) (rs : Service.response) =
    match rs.Service.rs_status with
    | Service.Done m ->
        let expected = Hashtbl.find refs b.Service.b_workload in
        if m.Service.m_checksum = expected then Ok m
        else
          Error
            (Printf.sprintf "%s: checksum %Ld, reference %Ld" (bench_label b)
               m.Service.m_checksum expected)
    | st ->
        Error (Printf.sprintf "%s: %s" (bench_label b) (Service.status_name st))
  in
  (* one request per cell fills the memory-tier compile cache; the
     BITSPEC-MAX and BASELINE replies give the energy ratio *)
  let energy = Hashtbl.create 64 in
  List.iteri
    (fun i (_, (b : Service.bench_req)) ->
      let rq =
        { Service.rq_id = 1_000_000 + i; rq_op = Service.Bench b;
          rq_deadline_ms = None; rq_fuel = None; rq_chaos = None }
      in
      match check b (span "server" (fun () -> Server.submit_wait srv rq)) with
      | Ok m when b.Service.b_heuristic = Bs_interp.Profile.Hmax
                  && not b.Service.b_no_expander ->
          Hashtbl.replace energy (b.Service.b_workload, b.Service.b_arch)
            m.Service.m_energy
      | Ok _ -> ()
      | Error e -> setup_fail ctx ("set-up request " ^ e))
    Loadgen.cells;
  let ratios =
    List.filter_map
      (fun name ->
        match
          ( Hashtbl.find_opt energy (name, Driver.Bitspec_arch),
            Hashtbl.find_opt energy (name, Driver.Baseline) )
        with
        | Some s, Some b when b > 0.0 -> Some (s /. b)
        | _ -> None)
      Registry.names
  in
  if List.length ratios <> List.length Registry.names then
    setup_fail ctx "set-up replies lack a BITSPEC-MAX/BASELINE pair";
  let plan =
    shuffle o.seed
      (Array.of_list
         (Loadgen.plan
            { Loadgen.default_cfg with
              Loadgen.lg_seed = Int64.of_int pseed; lg_requests = n;
              lg_clients = 2; lg_zipf_s = 1.1 }))
  in
  let instrs = Array.make n 0 in
  let item i =
    let rq = plan.(i) in
    match rq.Service.rq_op with
    | Service.Bench b ->
        Result.map
          (fun m -> instrs.(i) <- m.Service.m_instrs)
          (check b (Server.submit_wait srv rq))
    | _ -> Error "plan issued a non-bench request"
  in
  (* the timed phase starts from zeroed server metrics *)
  Metrics.reset ();
  let st0 = Server.stats srv in
  let finish () =
    let st1 = Server.stats srv in
    let qw = Metrics.histogram "serve_queue_wait_ms" in
    let req = Metrics.histogram "serve_request_ms" in
    let req_mem =
      Metrics.histogram ~labels:[ ("origin", "memory") ] "serve_request_ms"
    in
    let total_instrs = Array.fold_left ( + ) 0 instrs in
    let d f = float_of_int (f st1 - f st0) in
    { exact = [ ("machine.instrs", string_of_int total_instrs) ];
      energy_ratio = geomean ratios;
      layer =
        [ ("machine.instrs", float_of_int total_instrs);
          ("server.queue_wait_p50_ms", Metrics.quantile qw 0.5);
          ("server.queue_wait_p90_ms", Metrics.quantile qw 0.9);
          ("server.request_memory_p50_ms", Metrics.quantile req_mem 0.5);
          ("server.errors", d (fun s -> s.Service.st_errors));
          ("server.shed", d (fun s -> s.Service.st_shed));
          ("server.timeouts", d (fun s -> s.Service.st_timeouts));
          ("server.retries", d (fun s -> s.Service.st_retries)) ];
      service_ms = Some (Metrics.histogram_sum req -. Metrics.histogram_sum qw) }
  in
  { inputs = Printf.sprintf "plan-seed%d" pseed; n_items = n; clients = 2;
    item; finish; stop = (fun () -> Server.stop srv) }

(* --- campaign ---------------------------------------------------------- *)

let campaign_kernels = [ "CRC32"; "bitcount"; "stringsearch" ]
let power_dist = Bs_sim.Powertrace.Exponential 2000.0
let power_policy = Bs_sim.Checkpoint.Interval 500
let power_retries = 8

type kernel_state = {
  k_w : Workload.t;
  k_c : Driver.compiled;
  k_expected : int64;
  k_golden_misspecs : int;
  k_fault_fuel : int;
  k_power_fuel : int;
  k_faults : Machine.fault array;
  k_pseeds : int64 array;
  k_hot_pcs : int list;
}

(* Trial [i] of the timed phase: kernel [i mod 3], a fault trial when
   [(i / 3) mod 2 = 0] and a power trial otherwise, the [i / 6]-th of
   its (kernel, kind) stream — so each stream is exactly the trial list
   Campaign.run / Campaign.run_power draws from the same seed. *)
let campaign_slot i = (i mod 3, (i / 3) mod 2 = 0, i / 6)

let campaign_counts n =
  let faults = Array.make 3 0 and powers = Array.make 3 0 in
  for i = 0 to n - 1 do
    let k, is_fault, _ = campaign_slot i in
    if is_fault then faults.(k) <- faults.(k) + 1
    else powers.(k) <- powers.(k) + 1
  done;
  (faults, powers)

let hot_pcs_of (p : Bs_backend.Asm.program) =
  let acc = ref [] in
  Array.iteri
    (fun pc s -> if s <> None then acc := pc :: !acc)
    p.Bs_backend.Asm.srcmap;
  List.rev !acc

let campaign ctx : prepared =
  let o = ctx.o in
  let fseed = Int64.of_int (Option.value o.fault_seed ~default:1) in
  let pseed = Int64.of_int (Option.value o.power_seed ~default:1) in
  let n = item_count o ~per_second:17 in
  let n_faults, n_powers = campaign_counts n in
  let ratios = ref [] in
  let kernels =
    Array.of_list
      (List.mapi
         (fun k name ->
           let w = Registry.find name in
           let c = Experiment.compile_workload Driver.bitspec_config w in
           let mem = fresh_image c w.Workload.test in
           let golden =
             span "machine" (fun () ->
                 Machine.run
                   ~config:
                     { Machine.mode = mode_of c; fuel = 1_000_000_000;
                       fault = None; power = None; engine = Machine.Jit }
                   c.Driver.program (mem ()) ~entry:w.Workload.entry
                   ~args:w.Workload.test.Workload.args)
           in
           let expected =
             reference ctx ~interp_engine:Bs_interp.Interp.Tree w
           in
           if golden.Machine.r0 <> expected then
             setup_fail ctx
               (Printf.sprintf "%s golden run: checksum %Ld, reference %Ld"
                  name golden.Machine.r0 expected);
           (* the workload's BITSPEC/BASELINE energy ratio *)
           let base =
             Driver.run_machine
               ~setup:(w.Workload.test.Workload.setup c.Driver.ir)
               (Experiment.compile_workload Driver.baseline_config w)
               ~entry:w.Workload.entry ~args:w.Workload.test.Workload.args
           in
           let e r = Bs_energy.Energy.total (Bs_energy.Energy.of_result r) in
           ratios := (e golden /. e base) :: !ratios;
           let golden_instrs = golden.Machine.ctr.Counters.instrs in
           let sample = mem () in
           let mem_lo = Memimage.globals_base
           and mem_hi = Memimage.size sample - 1 in
           let frng = Rng.create fseed in
           let prng = Rng.create pseed in
           { k_w = w; k_c = c; k_expected = expected;
             k_golden_misspecs = golden.Machine.ctr.Counters.misspecs;
             k_fault_fuel = Outcome.hang_fuel ~steps:golden_instrs ~factor:4;
             k_power_fuel = Outcome.hang_fuel ~steps:golden_instrs ~factor:8;
             k_faults =
               Array.init n_faults.(k) (fun _ ->
                   Bs_sim.Faultinject.gen_fault frng ~max_instr:golden_instrs
                     ~mem_lo ~mem_hi);
             k_pseeds = Array.init n_powers.(k) (fun _ -> Rng.next prng);
             k_hot_pcs = hot_pcs_of c.Driver.program })
         campaign_kernels)
  in
  (* per slot: Faultinject.verdict_name of a bit flip, or
     Campaign.power_bucket of a power trial *)
  let verdicts = Array.make n "" in
  let restores = ref 0 and reexec = ref 0 and instrs = ref 0 in
  let order = shuffle o.seed (Array.init n Fun.id) in
  let item i =
    let i = order.(i) in
    let k, is_fault, idx = campaign_slot i in
    let ks = kernels.(k) in
    let w = ks.k_w and c = ks.k_c in
    let input = w.Workload.test in
    if is_fault then begin
      let tr =
        span "faultinject" (fun () ->
            Bs_sim.Faultinject.run_trial ~mode:(mode_of c)
              ~fuel:ks.k_fault_fuel ~program:c.Driver.program
              ~mem:(fresh_image c input) ~entry:w.Workload.entry
              ~args:input.Workload.args ~expected:ks.k_expected
              ~golden_misspecs:ks.k_golden_misspecs ks.k_faults.(idx))
      in
      verdicts.(i) <-
        Bs_sim.Faultinject.verdict_name tr.Bs_sim.Faultinject.verdict;
      Ok ()
    end
    else begin
      let verdict =
        span "faultinject" (fun () ->
            let trace =
              Bs_sim.Powertrace.create ~seed:ks.k_pseeds.(idx)
                ~hot_pcs:ks.k_hot_pcs power_dist
            in
            let power =
              Some
                { Machine.trace; policy = power_policy;
                  max_retries = power_retries }
            in
            let mem = fresh_image c input () in
            match
              span "machine" (fun () ->
                  Machine.run
                    ~config:
                      { Machine.mode = mode_of c; fuel = ks.k_power_fuel;
                        fault = None; power; engine = Machine.Jit }
                    c.Driver.program mem ~entry:w.Workload.entry
                    ~args:input.Workload.args)
            with
            | exception Machine.Sim_trap t -> Campaign.P_trapped t
            | exception Memimage.Fault m ->
                Campaign.P_trapped (Outcome.Memory_fault m)
            | r -> (
                let ctr = r.Machine.ctr in
                ignore
                  (span "energy" (fun () -> Bs_energy.Energy.of_result r));
                restores := !restores + ctr.Counters.restores;
                reexec := !reexec + ctr.Counters.reexec_instrs;
                instrs := !instrs + ctr.Counters.instrs;
                match r.Machine.outcome with
                | Outcome.Livelock -> Campaign.P_livelock
                | Outcome.Out_of_fuel -> Campaign.P_hung
                | Outcome.Trapped t -> Campaign.P_trapped t
                | Outcome.Finished ->
                    if r.Machine.r0 <> ks.k_expected then
                      Campaign.P_sdc r.Machine.r0
                    else if ctr.Counters.restores > 0 then
                      Campaign.P_restored ctr.Counters.restores
                    else Campaign.P_completed))
      in
      verdicts.(i) <- Campaign.power_bucket verdict;
      match verdict with
      | Campaign.P_completed | Campaign.P_restored _ -> Ok ()
      | _ ->
          Error
            (Printf.sprintf "%s power trial %d (seed %Ld): %s"
               w.Workload.name idx ks.k_pseeds.(idx) verdicts.(i))
    end
  in
  (* the verdicts of one kind, in stream order, of one kernel or all *)
  let stream ?kernel is_fault =
    List.filter_map
      (fun i ->
        let k, f, _ = campaign_slot i in
        if f = is_fault && (kernel = None || kernel = Some k) then
          Some verdicts.(i)
        else None)
      (List.init n Fun.id)
  in
  let tally l =
    let t = Hashtbl.create 8 in
    List.iter
      (fun v ->
        Hashtbl.replace t v (1 + Option.value (Hashtbl.find_opt t v) ~default:0))
      l;
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t [])
  in
  (* the smoke test's cross-check: the same streams through the campaign
     drivers users run must give the same verdicts *)
  let verify k ks =
    let w = ks.k_w in
    let faults = Campaign.run ~trials:n_faults.(k) ~seed:fseed w in
    let powers =
      Campaign.run_power ~policy:power_policy ~retries:power_retries
        ~dist:power_dist ~trials:n_powers.(k) ~seed:pseed w
    in
    (if
       List.map
         (fun tr -> Bs_sim.Faultinject.verdict_name tr.Bs_sim.Faultinject.verdict)
         faults.Campaign.trials
       <> stream ~kernel:k true
     then [ w.Workload.name ^ " fault verdicts" ]
     else [])
    @
    if
      List.map
        (fun tr -> Campaign.power_bucket tr.Campaign.pt_verdict)
        powers.Campaign.p_trials
      <> stream ~kernel:k false
    then [ w.Workload.name ^ " power verdicts" ]
    else []
  in
  let finish () =
    (if o.verify_campaign then
       match List.concat (List.mapi verify (Array.to_list kernels)) with
       | [] ->
           print_endline
             "campaign cross-check: verdicts equal Campaign.run / \
              Campaign.run_power"
       | l ->
           List.iter (fun m -> setup_fail ctx ("campaign cross-check: " ^ m)) l);
    let ft = tally (stream true) and pt = tally (stream false) in
    let n_fault = List.fold_left (fun a (_, v) -> a + v) 0 ft in
    let detected = Option.value (List.assoc_opt "detected" ft) ~default:0 in
    let show l =
      String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) l)
    in
    { exact =
        [ ("faults", show ft); ("power", show pt);
          ("machine.instrs", string_of_int !instrs);
          ("checkpoint.restores", string_of_int !restores);
          ("checkpoint.reexec_instrs", string_of_int !reexec) ];
      energy_ratio = geomean !ratios;
      layer =
        [ ("machine.instrs", float_of_int !instrs);
          ("faultinject.detected_share",
           if n_fault = 0 then 0.0
           else float_of_int detected /. float_of_int n_fault);
          ("checkpoint.restores", float_of_int !restores);
          ("checkpoint.reexec_instrs", float_of_int !reexec) ];
      service_ms = None }
  in
  { inputs = Printf.sprintf "fault-seed%Ld-power-seed%Ld" fseed pseed;
    n_items = n; clients = 1; item; finish; stop = ignore }

(* ------------------------------------------------------------------ *)
(* The timed phase                                                      *)
(* ------------------------------------------------------------------ *)

type timed = {
  wall_s : float;          (* the timed phase, on the benchmark's clock *)
  busy_s : float;          (* the timed phase minus its calibration slices *)
  lat_ms : float array;    (* per item, from call to checked result *)
  start : float array;     (* per item, its start on the benchmark's clock *)
  calib : (float * float * float) array;
      (* per calibration slice: start, then its two loop times (ms) *)
  n_failed : int;
  failures : string list;  (* the first few *)
}

(* Calibration slices take this share of the timed phase. *)
let calib_share = 0.08

(* Items run in rounds of [round] items; after each round, calibration
   slices run until they have taken [calib_share] of the phase so far,
   so they sample the host evenly across it.  Within a round [clients]
   closed-loop callers take the next item index as soon as their
   previous item returns; with one client the items run in order on the
   main thread and a round is one item. *)
let run_timed (p : prepared) : timed =
  let lat = Array.make p.n_items 0.0 and start = Array.make p.n_items 0.0 in
  let lock = Mutex.create () in
  let n_failed = ref 0 and failures = ref [] in
  let rec client next hi () =
    let i = Atomic.fetch_and_add next 1 in
    if i < hi then begin
      let t0 = now () in
      start.(i) <- t0;
      let r = try p.item i with e -> Error (Printexc.to_string e) in
      lat.(i) <- (now () -. t0) *. 1000.0;
      (match r with
      | Ok () -> ()
      | Error m ->
          Mutex.lock lock;
          incr n_failed;
          if !n_failed <= 5 then failures := m :: !failures;
          Mutex.unlock lock);
      client next hi ()
    end
  in
  let round = if p.clients <= 1 then 1 else 10 * p.clients in
  let calib = ref [] and calib_s = ref 0.0 in
  let t0 = now () in
  span "bench:timed" (fun () ->
      let lo = ref 0 in
      while !lo < p.n_items do
        let hi = min p.n_items (!lo + round) in
        let next = Atomic.make !lo in
        if p.clients <= 1 then client next hi ()
        else
          List.iter Thread.join
            (List.init p.clients (fun _ -> Thread.create (client next hi) ()));
        lo := hi;
        span "host:calib" (fun () ->
            while !calib_s < calib_share *. (now () -. t0) do
              let t = now () in
              let a, g = calib_slice () in
              calib := (t, a, g) :: !calib;
              calib_s := !calib_s +. (now () -. t)
            done)
      done);
  let wall_s = now () -. t0 in
  { wall_s; busy_s = wall_s -. !calib_s; lat_ms = lat; start;
    calib = Array.of_list (List.rev !calib); n_failed = !n_failed;
    failures = List.rev !failures }

(* ------------------------------------------------------------------ *)
(* Span analysis                                                        *)
(* ------------------------------------------------------------------ *)

(* The table's rows, in print order, and the span names that feed them.
   Unmapped span names fall into [other] and are listed in the output. *)
let layers =
  [ "machine"; "profile"; "squeezer"; "backend"; "frontend"; "expander";
    "cfg_prep"; "compile"; "interp"; "memimage"; "faultinject"; "oracle";
    "server"; "energy"; "calib"; "other" ]

let layer_of = function
  | "machine" | "experiment:simulate" -> Some "machine"
  | "profile" -> Some "profile"
  | "squeeze" | "compare elimination" | "bitmask elision"
  | "late optimisations" ->
      Some "squeezer"
  | "lower" | "assemble" -> Some "backend"
  | "frontend" -> Some "frontend"
  | "expander" -> Some "expander"
  | "CFG preparation" -> Some "cfg_prep"
  | "experiment:compile" -> Some "compile"
  | "interp" -> Some "interp"
  | "memimage" | "memimage:recycle" -> Some "memimage"
  | "faultinject" -> Some "faultinject"
  | "oracle" -> Some "oracle"
  | "server" -> Some "server"
  | "energy" -> Some "energy"
  | "host:calib" -> Some "calib"
  | "bench:timed" | "bench:setup" -> Some "other"
  | _ -> None

type span_stats = {
  self_ms : (string, float) Hashtbl.t;  (* per layer *)
  calls : (string, int) Hashtbl.t;      (* per span name *)
  mutable unmapped : string list;
  mutable unbalanced : int;
}

(* Self time = a span's duration minus the time its child spans cover,
   per emitting domain.  Only spans that begin and end inside the
   window [lo, hi] count; [main] selects the benchmark's own domain
   ([true]) or every other domain ([false]). *)
let analyse (evs : Trace.event list) ~main_tid ~main ~lo ~hi =
  let st =
    { self_ms = Hashtbl.create 16; calls = Hashtbl.create 16; unmapped = [];
      unbalanced = 0 }
  in
  let stacks = Hashtbl.create 4 in
  let stack tid =
    match Hashtbl.find_opt stacks tid with
    | Some s -> s
    | None ->
        let s = ref [] in
        Hashtbl.replace stacks tid s;
        s
  in
  let bump tbl k v z add =
    Hashtbl.replace tbl k
      (add v (Option.value (Hashtbl.find_opt tbl k) ~default:z))
  in
  List.iter
    (fun (e : Trace.event) ->
      if (e.Trace.tid = main_tid) = main then
        match e.Trace.ph with
        | Trace.B ->
            let s = stack e.Trace.tid in
            s := (e.Trace.name, e.Trace.ts, ref 0.0) :: !s
        | Trace.E -> (
            let s = stack e.Trace.tid in
            match !s with
            | (name, ts0, kids) :: rest ->
                s := rest;
                let dur = e.Trace.ts -. ts0 in
                (match rest with (_, _, pk) :: _ -> pk := !pk +. dur | [] -> ());
                if ts0 >= lo && e.Trace.ts <= hi then begin
                  bump st.calls name 1 0 ( + );
                  let layer =
                    match layer_of name with
                    | Some l -> l
                    | None ->
                        if not (List.mem name st.unmapped) then
                          st.unmapped <- name :: st.unmapped;
                        "other"
                  in
                  bump st.self_ms layer ((dur -. !kids) *. 1000.0) 0.0 ( +. )
                end
            | [] -> st.unbalanced <- st.unbalanced + 1)
        | Trace.I | Trace.S | Trace.T | Trace.F -> ())
    evs;
  Hashtbl.iter
    (fun _ s -> st.unbalanced <- st.unbalanced + List.length !s)
    stacks;
  st

let get tbl k = Option.value (Hashtbl.find_opt tbl k) ~default:0.0
let geti tbl k = Option.value (Hashtbl.find_opt tbl k) ~default:0

(* Window of the first completed span named [name] on the main domain. *)
let window evs ~main_tid name =
  let b = ref None and e = ref None in
  List.iter
    (fun (ev : Trace.event) ->
      if ev.Trace.tid = main_tid && ev.Trace.name = name then
        match ev.Trace.ph with
        | Trace.B when !b = None -> b := Some ev.Trace.ts
        | Trace.E when !b <> None && !e = None -> e := Some ev.Trace.ts
        | _ -> ())
    evs;
  match (!b, !e) with Some lo, Some hi -> Some (lo, hi) | _ -> None

(* ------------------------------------------------------------------ *)
(* Output                                                               *)
(* ------------------------------------------------------------------ *)

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json_metrics l =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (name, unit_, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v)
             unit_)
         l)
  ^ "}"

let json_strings l =
  "{"
  ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %S" k v) l)
  ^ "}"

let gc_settings () =
  let g = Gc.get () in
  Printf.sprintf "minor_heap_size=%dw space_overhead=%d" g.Gc.minor_heap_size
    g.Gc.space_overhead

let host_line () =
  let nproc = try Domain.recommended_domain_count () with _ -> 0 in
  Printf.sprintf "host: nproc=%d ocaml=%s gc: %s" nproc Sys.ocaml_version
    (gc_settings ())

(* ------------------------------------------------------------------ *)
(* Main                                                                 *)
(* ------------------------------------------------------------------ *)

let () =
  let o = parse_args () in
  let prepare ctx =
    match o.workload with
    | "paper-eval" -> paper_eval ctx
    | "fuzz" -> fuzz ctx
    | "serve" -> serve ctx
    | "campaign" -> campaign ctx
    | w -> die "unknown workload %S\nusage: %s" w usage
  in
  if o.traced then begin
    Trace.set_cap 1_000_000;
    Trace.enable ()
  end;
  let ctx = { o; setup_failures = []; interp_steps = 0 } in
  let p = span "bench:setup" (fun () -> prepare ctx) in
  let t_ready = now () in
  (* the host's speed just after the set-up, which scales setup_s *)
  let setup_calib =
    median (List.init 101 (fun _ -> slice_ms (calib_slice ())))
  in
  let setup_scale = 1.0 /. slowdown_of setup_calib in
  if o.setup_only then begin
    p.stop ();
    Printf.printf
      "{\"ready\": %.6f, \"setup_scale\": %.6f, \"setup_failures\": %d}\n"
      t_ready setup_scale (List.length ctx.setup_failures);
    exit (if ctx.setup_failures = [] then 0 else 1)
  end;
  let gc0 = Gc.quick_stat () in
  let cc0 = Compile_cache.stats () in
  let timed = run_timed p in
  let gc1 = Gc.quick_stat () in
  let hit_rate =
    let h0, m0 = cc0 and h1, m1 = Compile_cache.stats () in
    if h1 + m1 = h0 + m0 then 0.0
    else float_of_int (h1 - h0) /. float_of_int (h1 + m1 - h0 - m0)
  in
  let fin = p.finish () in
  p.stop ();
  Trace.disable ();
  let n = p.n_items in
  (* every item's start and latency and every calibration slice's start
     and loop times, to see how the host moved during the run *)
  (let f =
     open_out
       (Filename.concat o.out_dir
          (Printf.sprintf "samples-%s-seed%d.txt" o.workload o.seed))
   in
   Array.iteri
     (fun i t -> Printf.fprintf f "item %.6f %.4f\n" t timed.lat_ms.(i))
     timed.start;
   Array.iter
     (fun (t, a, g) -> Printf.fprintf f "calib %.6f %.4f %.4f\n" t a g)
     timed.calib;
   close_out f);
  let calib_run =
    median
      (Array.to_list
         (Array.map (fun (_, a, g) -> slice_ms (a, g)) timed.calib))
  in
  let slowdown = slowdown_of calib_run in
  let sorted = Array.copy timed.lat_ms in
  Array.sort compare sorted;
  let raw_ips = float_of_int n /. timed.busy_s in
  let raw_p50 = percentile sorted 0.5 and raw_p90 = percentile sorted 0.9 in
  (* the host-scaled end-to-end figures *)
  let items_per_s = raw_ips *. slowdown in
  let p50 = raw_p50 /. slowdown and p90 = raw_p90 /. slowdown in
  let violations = ref [] in
  let violate fmt =
    Printf.ksprintf (fun s -> violations := s :: !violations) fmt
  in
  Printf.printf "%s\n" (host_line ());
  Printf.printf
    "workload %s: %d items in %.3f s (%.3f of them in %d calibration \
     slices), %d failed\n"
    o.workload n timed.wall_s (timed.wall_s -. timed.busy_s)
    (Array.length timed.calib) timed.n_failed;
  Printf.printf
    "as measured: %.3f items/s, latency p50 %.3f ms, p90 %.3f ms (over %d \
     items)\n"
    raw_ips raw_p50 raw_p90 n;
  Printf.printf "latency deciles as measured (ms):%s\n"
    (String.concat ""
       (List.init 11 (fun k ->
            let q = float_of_int k /. 10.0 in
            Printf.sprintf " %.1f" (percentile sorted q))));
  Printf.printf
    "host: median calibration slice %.3f ms in the timed phase, %.3f ms \
     after the set-up, %.3f ms on the reference host: slowdown %.4f \
     (the slice ratio ^ %.2f)\n"
    calib_run setup_calib calib_ref_ms slowdown host_elasticity;
  Printf.printf
    "host-scaled: %.3f items/s, latency p50 %.3f ms, p90 %.3f ms\n"
    items_per_s p50 p90;
  List.iter (fun m -> Printf.printf "FAILED: %s\n" m) timed.failures;
  List.iter (fun m -> Printf.printf "SET-UP FAILED: %s\n" m) ctx.setup_failures;
  Printf.printf "energy_ratio_gmean %.17g\n" fin.energy_ratio;
  let metrics =
    if not o.traced then
      [ ("items_per_s", "1/s", items_per_s);
        ("latency_p50_ms", "ms", p50);
        ("latency_p90_ms", "ms", p90);
        ("peak_rss_mb", "MB", peak_rss_mb ());
        ("energy_ratio_gmean", "ratio", fin.energy_ratio) ]
    else begin
      let evs = Trace.events () in
      let main_tid = (Domain.self () :> int) in
      let trace_file =
        Filename.concat o.out_dir
          (Printf.sprintf "trace-%s-seed%d.json" o.workload o.seed)
      in
      (try Trace.write_chrome trace_file
       with Sys_error m -> violate "cannot write the trace: %s" m);
      if Trace.dropped () > 0 then
        violate "%d trace events dropped" (Trace.dropped ());
      let setup_win = window evs ~main_tid "bench:setup" in
      let timed_win = window evs ~main_tid "bench:timed" in
      let lo, hi =
        match timed_win with
        | Some w -> w
        | None ->
            violate "no bench:timed span";
            (0.0, 0.0)
      in
      let st = analyse evs ~main_tid ~main:true ~lo ~hi in
      let worker = analyse evs ~main_tid ~main:false ~lo ~hi in
      let setup_st =
        match setup_win with
        | Some (slo, shi) -> analyse evs ~main_tid ~main:true ~lo:slo ~hi:shi
        | None -> analyse [] ~main_tid ~main:true ~lo:0.0 ~hi:0.0
      in
      if st.unbalanced + worker.unbalanced > 0 then
        violate "%d unbalanced spans" (st.unbalanced + worker.unbalanced);
      let phase_ms = (hi -. lo) *. 1000.0 in
      let rows = Hashtbl.copy st.self_ms in
      (* serve: a request is served on the worker domain; the client
         threads only wait.  Its rows are the worker's spans (the cache
         lookups) and the rest of each request's service time, both cut
         out of the main domain's waiting. *)
      (match fin.service_ms with
      | None -> ()
      | Some service_ms ->
          let worker_spans =
            Hashtbl.fold (fun _ v acc -> acc +. v) worker.self_ms 0.0
          in
          let add k v = Hashtbl.replace rows k (get rows k +. v) in
          Hashtbl.iter add worker.self_ms;
          add "server" (service_ms -. worker_spans);
          add "other" (-.service_ms);
          if get rows "other" < -0.01 *. phase_ms then
            violate "server service time %.3f ms exceeds the timed phase %.3f ms"
              service_ms phase_ms);
      let sum = List.fold_left (fun acc l -> acc +. get rows l) 0.0 layers in
      let wall_ms = timed.wall_s *. 1000.0 in
      if Float.abs (sum -. wall_ms) > 0.01 *. wall_ms then
        violate "layer self times sum to %.3f ms, timed phase is %.3f ms" sum
          wall_ms;
      Printf.printf "\nper-layer self time over the timed phase (%.3f ms):\n"
        wall_ms;
      List.iter
        (fun l ->
          let v = get rows l in
          if v > 0.0 || l = "other" then
            Printf.printf "  %-12s %12.3f ms %6.2f%%\n" l v
              (100.0 *. v /. wall_ms))
        layers;
      Printf.printf "  %-12s %12.3f ms (sum; timed phase %.3f ms)\n" "total"
        sum wall_ms;
      if st.unmapped <> [] then
        Printf.printf "  spans counted in other: %s\n"
          (String.concat ", " st.unmapped);
      Printf.printf "set-up (%s):%s\n"
        (match setup_win with
         | Some (a, b) -> Printf.sprintf "%.3f ms" ((b -. a) *. 1000.0)
         | None -> "?")
        (String.concat ""
           (List.filter_map
              (fun l ->
                let v = get setup_st.self_ms l in
                if v > 0.0 then Some (Printf.sprintf " %s %.3f ms" l v) else None)
              layers));
      Printf.printf "chrome trace: %s (%d events)\n" trace_file (List.length evs);
      let calls name =
        float_of_int (geti st.calls name + geti worker.calls name)
      in
      let layer_v k = Option.value (List.assoc_opt k fin.layer) ~default:0.0 in
      let machine_ms = get rows "machine" in
      let interp_ms = get setup_st.self_ms "interp" in
      let alloc_w (g : Gc.stat) =
        g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words
      in
      (* the per-layer metrics BENCHMARK.json names, with units *)
      let ms l = get rows l in
      let rate num den = if den > 0.0 then num /. den else 0.0 in
      [ ("machine.self_ms", "ms", machine_ms);
        ("machine.instrs", "count", layer_v "machine.instrs");
        ("machine.mips", "Minstr/s",
         rate (layer_v "machine.instrs") (machine_ms *. 1000.0));
        ("profile.self_ms", "ms", ms "profile");
        ("profile.runs", "count", calls "profile");
        ("squeezer.self_ms", "ms", ms "squeezer");
        ("backend.self_ms", "ms", ms "backend");
        ("frontend.self_ms", "ms", ms "frontend");
        ("expander.self_ms", "ms", ms "expander");
        ("cfg_prep.self_ms", "ms", ms "cfg_prep");
        ("compile.self_ms", "ms", ms "compile");
        ("compile.calls", "count", calls "experiment:compile");
        ("compile_cache.hit_rate", "ratio", hit_rate);
        ("interp.self_ms", "ms", interp_ms);
        ("interp.steps", "count", float_of_int ctx.interp_steps);
        ("interp.msteps_per_s", "Msteps/s",
         rate (float_of_int ctx.interp_steps) (interp_ms *. 1000.0));
        ("memimage.self_ms", "ms", ms "memimage");
        ("memimage.images", "count", calls "memimage");
        ("faultinject.self_ms", "ms", ms "faultinject");
        ("faultinject.detected_share", "ratio",
         layer_v "faultinject.detected_share");
        ("checkpoint.restores", "count", layer_v "checkpoint.restores");
        ("checkpoint.reexec_instrs", "count", layer_v "checkpoint.reexec_instrs");
        ("oracle.self_ms", "ms", ms "oracle");
        ("oracle.agree", "count", layer_v "oracle.agree");
        ("oracle.skip", "count", layer_v "oracle.skip");
        ("oracle.crash", "count", layer_v "oracle.crash");
        ("server.self_ms", "ms", ms "server");
        ("server.queue_wait_p50_ms", "ms", layer_v "server.queue_wait_p50_ms");
        ("server.queue_wait_p90_ms", "ms", layer_v "server.queue_wait_p90_ms");
        ("server.request_memory_p50_ms", "ms",
         layer_v "server.request_memory_p50_ms");
        ("server.errors", "count", layer_v "server.errors");
        ("server.shed", "count", layer_v "server.shed");
        ("server.timeouts", "count", layer_v "server.timeouts");
        ("server.retries", "count", layer_v "server.retries");
        ("energy.self_ms", "ms", ms "energy");
        ("gc.alloc_mw", "Mwords", (alloc_w gc1 -. alloc_w gc0) /. 1e6);
        ("gc.major_collections", "count",
         float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
        ("host.calib_ms", "ms", calib_run);
        ("host.calib_setup_ms", "ms", setup_calib);
        ("host.slowdown", "ratio", slowdown);
        ("other.self_ms", "ms", ms "other");
        ("phase.timed_ms", "ms", wall_ms) ]
    end
  in
  let ok =
    timed.n_failed = 0 && ctx.setup_failures = [] && !violations = []
  in
  List.iter
    (fun v -> Printf.printf "INVARIANT VIOLATED: %s\n" v)
    (List.rev !violations);
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s, \
     \"ready\": %.6f, \"setup_scale\": %.6f, \"items_per_s\": %s, \"inputs\": %S, \
     \"exact\": %s}\n"
    ok n timed.n_failed (json_metrics metrics) t_ready setup_scale
    (json_num items_per_s)
    p.inputs
    (json_strings
       (fin.exact
       @ [ ("energy_ratio_gmean", Printf.sprintf "%.17g" fin.energy_ratio);
           ("compile_cache.hit_rate", Printf.sprintf "%.17g" hit_rate) ]
       @
       if o.traced then [ ("interp.steps", string_of_int ctx.interp_steps) ]
       else []));
  exit (if !violations = [] then 0 else 1)
