open Bs_support
open Bs_interp
open Bs_sim
open Bs_workloads

(* Fault-injection campaigns over built-in workloads.

   A campaign compiles the workload under a configuration, establishes the
   fault-free ("golden") machine run and the reference interpreter's
   checksum (the differential oracle, via Experiment), then replays the
   test input N times, each with one seeded single-bit flip, and tabulates
   Faultinject's masked / detected / trapped / sdc / hung classification.
   Everything downstream of the seed is deterministic. *)

type t = {
  workload : string;
  arch : Driver.arch;
  seed : int64;
  golden_instrs : int;
  golden_misspecs : int;
  expected : int64;            (* the reference interpreter's checksum *)
  trials : Faultinject.trial list;
}

let arch_name = function
  | Driver.Baseline -> "baseline"
  | Driver.Bitspec_arch -> "bitspec"
  | Driver.Thumb -> "thumb"

(* The sharded fan-out engine shared by every campaign flavour.  The
   work array is pre-drawn (all randomness consumed before any trial
   runs), chunked into fixed-size shards, and mapped over the pool;
   shards come back in submission order and concatenate to exactly the
   sequential result, so a campaign is byte-identical at any [jobs].
   Sharding amortises the pool's per-task cost over 32 trials. *)
let shard_size = 32

let sharded ~jobs f (work : 'a array) : 'b array =
  let n = Array.length work in
  if n = 0 then [||]
  else begin
    let nshards = (n + shard_size - 1) / shard_size in
    let shards =
      Array.init nshards (fun s ->
          let lo = s * shard_size in
          Array.sub work lo (min n (lo + shard_size) - lo))
    in
    Array.concat
      (Array.to_list (Bs_exec.Pool.map ~jobs (Array.map f) shards))
  end

(* The set-up every campaign flavour shares: the compiled workload, a
   maker of fresh test-input images, the fault-free ("golden") run, the
   reference interpreter's checksum (the differential oracle), and the
   fuel past which a trial counts as hung: [hang_factor] times the
   golden instruction count.  A golden run that traps stops the
   campaign with its error line. *)
type setup = {
  c : Driver.compiled;
  mem : unit -> Memimage.t;
  golden : Machine.result;
  expected : int64;
  fuel : int;
}

let simulate ?fuel ?power c (w : Workload.t) =
  let input = w.Workload.test in
  Driver.run_machine ~setup:(input.Workload.setup c.Driver.ir) ?fuel ?power c
    ~entry:w.Workload.entry ~args:input.Workload.args

let setup ~hang_factor config (w : Workload.t) =
  let c = Experiment.compile_workload config w in
  let mem () =
    let mem = Memimage.create c.Driver.ir in
    w.Workload.test.Workload.setup c.Driver.ir mem;
    mem
  in
  let golden = simulate c w in
  Outcome.refuse_trap ~engine:"simulator" golden.Machine.outcome;
  (* injected-fault oracles stay on the tree engine: no compilation
     layer of their own between the IR and the reference checksum *)
  let expected = Experiment.reference_checksum ~interp_engine:Interp.Tree w in
  let fuel =
    Outcome.hang_fuel ~steps:golden.Machine.ctr.Counters.instrs
      ~factor:hang_factor
  in
  { c; mem; golden; expected; fuel }

let run ?(config = Driver.bitspec_config) ?(jobs = 1) ~trials ~seed
    (w : Workload.t) : t =
  (* a hung run is one that outlives the golden instruction count by 4x
     (the budget formula is shared with the fuzz oracle) *)
  let { c; mem; golden; expected; fuel } = setup ~hang_factor:4 config w in
  let input = w.Workload.test in
  let golden_instrs = golden.Machine.ctr.Counters.instrs in
  let golden_misspecs = golden.Machine.ctr.Counters.misspecs in
  let sample = mem () in
  let mem_lo = Memimage.globals_base
  and mem_hi = Memimage.size sample - 1 in
  (* Split the seed stream up front: the whole fault list is drawn from
     the rng sequentially, then the (independent, rng-free) trials fan
     out over the pool.  The trial list is identical whatever [jobs]. *)
  let rng = Rng.create seed in
  let faults =
    Array.init trials (fun _ ->
        Faultinject.gen_fault rng ~max_instr:golden_instrs ~mem_lo ~mem_hi)
  in
  let results =
    Bs_obs.Trace.with_span
      ~args:[ ("workload", w.Workload.name) ]
      "campaign:fanout"
    @@ fun () ->
    Array.to_list
      (sharded ~jobs
         (fun fault ->
           Faultinject.run_trial ~mode:(Driver.machine_mode c) ~fuel
             ~program:c.Driver.program ~mem ~entry:w.Workload.entry
             ~args:input.Workload.args ~expected ~golden_misspecs fault)
         faults)
  in
  { workload = w.Workload.name; arch = config.Driver.arch; seed;
    golden_instrs; golden_misspecs; expected; trials = results }

let report ?(max_examples = 8) (t : t) : string =
  let b = Buffer.create 1024 in
  let n = List.length t.trials in
  Buffer.add_string b
    (Printf.sprintf
       "fault-injection campaign: %s (%s), %d trials, seed %Ld\n"
       t.workload (arch_name t.arch) n t.seed);
  Buffer.add_string b
    (Printf.sprintf
       "golden run: %d instrs, %d misspecs, checksum %Ld\n\n"
       t.golden_instrs t.golden_misspecs t.expected);
  let s = Faultinject.summarize t.trials in
  Buffer.add_string b (Printf.sprintf "%-10s %6s %7s\n" "verdict" "count" "%");
  List.iter
    (fun (name, count) ->
      Buffer.add_string b
        (Printf.sprintf "%-10s %6d %6.1f%%\n" name count
           (if n = 0 then 0.0 else 100.0 *. float_of_int count /. float_of_int n)))
    (Faultinject.summary_rows s);
  let detected =
    List.filter
      (fun (tr : Faultinject.trial) ->
        match tr.Faultinject.verdict with
        | Faultinject.Detected _ -> true
        | _ -> false)
      t.trials
  in
  if detected <> [] then begin
    Buffer.add_string b
      "\nfaults caught by the misspeculation hardware (detected):\n";
    List.iteri
      (fun i tr ->
        if i < max_examples then
          Buffer.add_string b ("  " ^ Faultinject.describe_trial tr ^ "\n"))
      detected;
    if List.length detected > max_examples then
      Buffer.add_string b
        (Printf.sprintf "  ... and %d more\n"
           (List.length detected - max_examples))
  end;
  Buffer.contents b

(* --- intermittent-power campaigns -------------------------------------- *)

(* One trial = one full run under a seeded power-failure trace with
   checkpoint/restore.  Restores roll state back exactly, so a finished
   run with a wrong checksum ([P_sdc]) indicates a checkpoint/restore
   bug — the campaign doubles as the rollback machinery's own test. *)

type power_verdict =
  | P_completed
  | P_restored of int
  | P_sdc of int64
  | P_trapped of Outcome.trap
  | P_hung
  | P_livelock

type power_trial = {
  pt_seed : int64;
  pt_verdict : power_verdict;
  pt_restores : int;
  pt_checkpoints : int;
  pt_ckpt_bytes : int;
  pt_reexec : int;
  pt_instrs : int;
  pt_run_energy : float;       (* the execution breakdown's total *)
  pt_ckpt_energy : float;      (* checkpoint writes + restore cost *)
  pt_reexec_energy : float;    (* re-executed share of the run energy *)
}

type power_campaign = {
  p_workload : string;
  p_dist : Powertrace.dist;
  p_policy : Checkpoint.policy;
  p_retries : int;
  p_seed : int64;
  p_golden_instrs : int;
  p_golden_energy : float;
  p_expected : int64;
  p_trials : power_trial list;
}

(* The shared triage key: power campaigns tally into the same bucket
   namespace the fuzz corpus uses, so "restored" or "reexec-livelock"
   means the same thing in a harvest report and a reproducer header. *)
let power_bucket = function
  | P_completed -> "completed"
  | P_restored _ -> Bucket.key (Bucket.restored ())
  | P_livelock -> Bucket.key (Bucket.reexec_livelock ())
  | P_hung -> Bucket.key (Bucket.hang ())
  | P_sdc _ -> "sdc"
  | P_trapped t -> "trapped:" ^ Outcome.trap_name t

let classify_power ~expected (r : Machine.result) =
  match r.Machine.outcome with
  | Outcome.Livelock -> P_livelock
  | Outcome.Out_of_fuel -> P_hung
  | Outcome.Trapped t -> P_trapped t
  | Outcome.Finished ->
      let restores = r.Machine.ctr.Counters.restores in
      if r.Machine.r0 <> expected then P_sdc r.Machine.r0
      else if restores > 0 then P_restored restores
      else P_completed

let hot_pcs_of (p : Bs_backend.Asm.program) =
  let acc = ref [] in
  Array.iteri
    (fun pc s -> if s <> None then acc := pc :: !acc)
    p.Bs_backend.Asm.srcmap;
  List.rev !acc

let run_power ?(config = Driver.bitspec_config) ?(jobs = 1)
    ?(policy = Checkpoint.Interval 500) ?(retries = 8) ~dist ~trials ~seed
    (w : Workload.t) : power_campaign =
  (* an intermittent run legitimately re-executes work, so its budget is
     wider than the soft-error campaigns' 4x before it counts as hung *)
  let { c; golden; expected; fuel; _ } = setup ~hang_factor:8 config w in
  let golden_instrs = golden.Machine.ctr.Counters.instrs in
  let golden_energy =
    Bs_energy.Energy.total (Bs_energy.Energy.of_result golden)
  in
  let hot_pcs = hot_pcs_of c.Driver.program in
  (* one seed per trial, drawn sequentially up front (jobs-invariant) *)
  let rng = Rng.create seed in
  let pseeds = Array.init trials (fun _ -> Rng.next rng) in
  let run_one pseed =
    let trace = Powertrace.create ~seed:pseed ~hot_pcs dist in
    let r =
      simulate ~fuel ~power:{ Machine.trace; policy; max_retries = retries }
        c w
    in
    (* a trapped run reports no activity: its counts and energies are 0 *)
    let ctr = r.Machine.ctr in
    let b = Bs_energy.Energy.of_result r in
    { pt_seed = pseed; pt_verdict = classify_power ~expected r;
      pt_restores = ctr.Counters.restores;
      pt_checkpoints = ctr.Counters.checkpoints;
      pt_ckpt_bytes = ctr.Counters.checkpoint_bytes;
      pt_reexec = ctr.Counters.reexec_instrs;
      pt_instrs = ctr.Counters.instrs;
      pt_run_energy = Bs_energy.Energy.total b;
      pt_ckpt_energy = Bs_energy.Energy.checkpoint_energy ctr;
      pt_reexec_energy = Bs_energy.Energy.reexec_energy b ctr }
  in
  let results =
    Bs_obs.Trace.with_span
      ~args:[ ("workload", w.Workload.name) ]
      "campaign:power"
    @@ fun () -> Array.to_list (sharded ~jobs run_one pseeds)
  in
  { p_workload = w.Workload.name; p_dist = dist; p_policy = policy;
    p_retries = retries; p_seed = seed; p_golden_instrs = golden_instrs;
    p_golden_energy = golden_energy; p_expected = expected;
    p_trials = results }

let power_report (t : power_campaign) : string =
  let b = Buffer.create 1024 in
  let n = List.length t.p_trials in
  Buffer.add_string b
    (Printf.sprintf
       "power-failure campaign: %s, %d trials, dist %s, policy %s, \
        retries %d, seed %Ld\n"
       t.p_workload n
       (Powertrace.dist_to_string t.p_dist)
       (Checkpoint.policy_name t.p_policy)
       t.p_retries t.p_seed);
  Buffer.add_string b
    (Printf.sprintf "golden run: %d instrs, energy %.0f, checksum %Ld\n\n"
       t.p_golden_instrs t.p_golden_energy t.p_expected);
  let tally =
    List.fold_left
      (fun acc tr -> Bucket.add acc (power_bucket tr.pt_verdict))
      Bucket.empty_tally t.p_trials
  in
  Buffer.add_string b (Bucket.report tally);
  if n > 0 then begin
    let fi = float_of_int in
    let sum f = List.fold_left (fun acc tr -> acc + f tr) 0 t.p_trials in
    let sumf f = List.fold_left (fun acc tr -> acc +. f tr) 0.0 t.p_trials in
    let restores = sum (fun tr -> tr.pt_restores) in
    let ckpts = sum (fun tr -> tr.pt_checkpoints) in
    let instrs = sum (fun tr -> tr.pt_instrs) in
    let reexec = sum (fun tr -> tr.pt_reexec) in
    let run_e = sumf (fun tr -> tr.pt_run_energy) in
    let ckpt_e = sumf (fun tr -> tr.pt_ckpt_energy) in
    let re_e = sumf (fun tr -> tr.pt_reexec_energy) in
    let pct a b = if b = 0.0 then 0.0 else 100.0 *. a /. b in
    Buffer.add_string b
      (Printf.sprintf
         "\nmeans per trial: %.1f restores, %.1f checkpoints\n"
         (fi restores /. fi n) (fi ckpts /. fi n));
    Buffer.add_string b
      (Printf.sprintf "re-executed instructions: %.1f%% of %d\n"
         (pct (fi reexec) (fi instrs)) instrs);
    Buffer.add_string b
      (Printf.sprintf
         "energy overhead: %.1f%% checkpoints + %.1f%% re-execution \
          (vs golden %.1f%%)\n"
         (pct ckpt_e run_e) (pct re_e run_e)
         (pct (ckpt_e +. re_e)
            (float_of_int n *. t.p_golden_energy)))
  end;
  Buffer.contents b

(* --- predicted-vs-measured bit-level validation ------------------------ *)

(* Cross-validate the static {!Bs_analysis.Vulnerability} prediction
   against a measured register-flip campaign: every trial flips exactly
   one register bit, so its verdict is a sample of that bit position's
   measured class distribution. *)

type bit_row = {
  v_bit : int;
  v_trials : int;
  v_masked : int;      (* measured masked count *)
  v_caught : int;      (* measured detected count *)
  v_corrupt : int;     (* measured sdc + trapped + hung *)
}

type validation = {
  v_workload : string;
  v_seed : int64;
  v_pred : Bs_analysis.Vulnerability.t;
  v_rows : bit_row array;  (* 32 rows, one per register bit *)
  v_agreement : float;     (* trial-weighted dominant-class agreement *)
}

let measured_class (v : Faultinject.verdict) : Bs_analysis.Vulnerability.clazz =
  match v with
  | Faultinject.Masked -> Bs_analysis.Vulnerability.Masked
  | Faultinject.Detected _ -> Bs_analysis.Vulnerability.Caught
  | Faultinject.Sdc _ | Faultinject.Trapped _ | Faultinject.Hung ->
      Bs_analysis.Vulnerability.Sdc

let validate ?(config = Driver.bitspec_config) ?(jobs = 1) ~trials ~seed
    (w : Workload.t) : validation =
  let { c; mem; golden; expected; fuel } = setup ~hang_factor:4 config w in
  let input = w.Workload.test in
  let golden_instrs = golden.Machine.ctr.Counters.instrs in
  let golden_misspecs = golden.Machine.ctr.Counters.misspecs in
  let rng = Rng.create seed in
  let faults =
    Array.init trials (fun _ ->
        Faultinject.gen_reg_fault rng ~max_instr:golden_instrs)
  in
  let results =
    Bs_obs.Trace.with_span
      ~args:[ ("workload", w.Workload.name) ]
      "campaign:validate"
    @@ fun () ->
    sharded ~jobs
      (fun fault ->
        Faultinject.run_trial ~mode:(Driver.machine_mode c) ~fuel
          ~program:c.Driver.program ~mem ~entry:w.Workload.entry
          ~args:input.Workload.args ~expected ~golden_misspecs fault)
      faults
  in
  let pred = Bs_analysis.Vulnerability.analyze c.Driver.ir in
  let masked = Array.make 32 0
  and caught = Array.make 32 0
  and corrupt = Array.make 32 0 in
  Array.iter
    (fun (tr : Faultinject.trial) ->
      match tr.Faultinject.tfault.Machine.target with
      | Machine.Flip_reg (_, bit) -> (
          match measured_class tr.Faultinject.verdict with
          | Bs_analysis.Vulnerability.Masked ->
              masked.(bit) <- masked.(bit) + 1
          | Bs_analysis.Vulnerability.Caught ->
              caught.(bit) <- caught.(bit) + 1
          | Bs_analysis.Vulnerability.Sdc ->
              corrupt.(bit) <- corrupt.(bit) + 1)
      | _ -> ())
    results;
  let rows =
    Array.init 32 (fun b ->
        { v_bit = b; v_trials = masked.(b) + caught.(b) + corrupt.(b);
          v_masked = masked.(b); v_caught = caught.(b);
          v_corrupt = corrupt.(b) })
  in
  (* trial-weighted agreement: a trial agrees when its measured class is
     the statically-predicted dominant class at its bit *)
  let agree = ref 0 and total = ref 0 in
  Array.iteri
    (fun b row ->
      let dom =
        Bs_analysis.Vulnerability.dominant
          pred.Bs_analysis.Vulnerability.bits.(b)
      in
      total := !total + row.v_trials;
      agree :=
        !agree
        + (match dom with
          | Bs_analysis.Vulnerability.Masked -> row.v_masked
          | Bs_analysis.Vulnerability.Caught -> row.v_caught
          | Bs_analysis.Vulnerability.Sdc -> row.v_corrupt))
    rows;
  let agreement =
    if !total = 0 then 0.0
    else 100.0 *. float_of_int !agree /. float_of_int !total
  in
  { v_workload = w.Workload.name; v_seed = seed; v_pred = pred;
    v_rows = rows; v_agreement = agreement }

let validation_report (v : validation) : string =
  let b = Buffer.create 2048 in
  let open Bs_analysis in
  Buffer.add_string b
    (Printf.sprintf
       "bit-level validation: %s, %d register-flip trials, seed %Ld\n"
       v.v_workload
       (Array.fold_left (fun acc r -> acc + r.v_trials) 0 v.v_rows)
       v.v_seed);
  Buffer.add_string b
    (Printf.sprintf
       "%-4s %10s %10s | %8s %8s %8s | %s\n" "bit" "predicted" "measured"
       "masked" "caught" "corrupt" "n");
  Array.iter
    (fun row ->
      let p = v.v_pred.Vulnerability.bits.(row.v_bit) in
      let pdom = Vulnerability.dominant p in
      let mdom =
        if row.v_trials = 0 then "-"
        else if row.v_masked >= row.v_caught && row.v_masked >= row.v_corrupt
        then "masked"
        else if row.v_caught >= row.v_corrupt then "caught"
        else "sdc"
      in
      let pct c =
        if row.v_trials = 0 then 0.0
        else 100.0 *. float_of_int c /. float_of_int row.v_trials
      in
      Buffer.add_string b
        (Printf.sprintf
           "%-4d %10s %10s | %7.1f%% %7.1f%% %7.1f%% | %d\n" row.v_bit
           (Vulnerability.class_name pdom) mdom (pct row.v_masked)
           (pct row.v_caught) (pct row.v_corrupt) row.v_trials))
    v.v_rows;
  Buffer.add_string b
    (Printf.sprintf "dominant-class agreement: %.1f%% of trials\n"
       v.v_agreement);
  Buffer.contents b
