open Bs_support
open Bs_interp
open Bitspec

(* The differential oracle.

   The reference semantics of a program is its pristine lowering run on
   the IR interpreter.  Each engine below compiles the same source through
   the full pipeline (a pass failure stops the compile with its
   diagnostic, which the bucket keys on) and simulates it on the machine
   model.  The first engine that disagrees with the reference determines
   the verdict's bucket; engine order is fixed so identical inputs yield
   identical buckets. *)

type engine = { ename : string; config : Driver.config }

let engines =
  [ { ename = "baseline"; config = Driver.baseline_config };
    { ename = "bitspec-max"; config = Driver.bitspec_config };
    { ename = "bitspec-avg";
      config = { Driver.bitspec_config with heuristic = Profile.Havg } };
    { ename = "bitspec-min";
      config = { Driver.bitspec_config with heuristic = Profile.Hmin } };
    { ename = "thumb"; config = Driver.thumb_config } ]

type exec_obs =
  | Value of int64
  | Fuel
  | Trap of string

type verdict =
  | Agree of exec_obs
  | Skip of string
  | Crash of { bucket : Bucket.t; details : string }

let mask32 v = Int64.logand v 0xFFFFFFFFL

let obs_str = function
  | Value v -> Printf.sprintf "value %Ld" v
  | Fuel -> "out of fuel"
  | Trap t -> "trap " ^ t

(* How a run ended, coarsened for comparison; both sides map through
   here.  A trap compares by its kind, so a trap that classifies
   identically on both sides is not a divergence. *)
let obs_of outcome value =
  match outcome with
  | Outcome.Finished -> Value (mask32 value)
  | Outcome.Out_of_fuel | Outcome.Livelock -> Fuel
  | Outcome.Trapped t -> Trap (Outcome.trap_name t)

(* A run reports its own traps; building its image raises when the
   globals do not fit, which ends it as the memory fault it would hit. *)
let image_fault msg = Outcome.Trapped (Outcome.Memory_fault msg)

let frontend_bucket e =
  let open Bs_frontend in
  let detail =
    match e with
    | Lexer.Error _ -> "lex"
    | Parser.Error _ -> "parse"
    | Typecheck.Error _ -> "typecheck"
    | Lower.Error _ -> "lower"
    | Stack_overflow -> "stack-overflow"
    | _ -> "other"
  in
  Bucket.make ~code:"BS-FE-01" ~detail Bucket.Frontend_reject

let run ?plant ?(fuel = 2_000_000) ?train ?(engine = Bs_sim.Machine.Jit)
    ~source ~entry ~args () =
  let train =
    match train with Some t -> t | None -> [ (entry, Gen.train_args) ]
  in
  (* 1. The reference: pristine lowering on the interpreter. *)
  match Bs_frontend.Lower.compile source with
  | exception e ->
      Crash
        { bucket = frontend_bucket e;
          details = "front-end rejected the program: " ^ Printexc.to_string e }
  | m -> (
      let opts = { Interp.default_opts with fuel } in
      let ref_obs, machine_fuel =
        match Interp.run_fresh ~opts m ~entry ~args with
        | ({ outcome = Outcome.Finished; _ } as r), _ ->
            ( obs_of r.Interp.outcome (Option.value r.Interp.ret ~default:0L),
              (* a machine run executes a small constant factor more
                 instructions than IR steps; 20x + slack detects hangs
                 quickly without false positives (the budget formula
                 is shared with the injection campaigns) *)
              Outcome.hang_fuel ~steps:r.Interp.steps ~factor:20 )
        | r, _ -> (obs_of r.Interp.outcome 0L, fuel)
        | exception Memimage.Fault msg -> (obs_of (image_fault msg) 0L, fuel)
      in
      match ref_obs with
      | Fuel -> Skip "reference interpreter ran out of fuel"
      | Trap k when k = Outcome.trap_name Outcome.Stack_overflow ->
          (* the interpreter bounds its call depth to protect the host
             stack; the machine's stack has no such bound *)
          Skip "reference interpreter overflowed its stack"
      | Value _ | Trap _ ->
          (* 2. Each engine versus the reference, first divergence wins.
             Compiles go through the process-wide cache: the key covers
             everything the compile depends on (source, configuration,
             training runs, planted fault), so the reducer's repeated
             oracle calls and the final reproducer replay each compile a
             given candidate once per engine. *)
          let src_key = Compile_cache.source_key source in
          let train_key =
            String.concat ";"
              (List.map
                 (fun (e, args) ->
                   e ^ ":" ^ String.concat "," (List.map Int64.to_string args))
                 train)
          in
          let plant_key =
            match plant with Some f -> Corpus.fault_to_string f | None -> "-"
          in
          let rec check = function
            | [] -> Agree ref_obs
            | { ename; config } :: rest -> (
                match
                  Compile_cache.compile
                    ~key:
                      (Printf.sprintf "fuzz|%s|%s|%s|%s" src_key
                         (Driver.config_tag config) train_key plant_key)
                    (fun () ->
                      Driver.compile ?pass_fault:plant ~config ~source
                        ~train ())
                with
                | exception e ->
                    let d = Driver.diag_of_exn e in
                    Crash
                      { bucket = Bucket.of_diag ~detail:ename d;
                        details =
                          Printf.sprintf "%s failed to compile: %s" ename
                            (Diag.to_string d) }
                | c -> (
                    let eng_obs =
                      match
                        Driver.run_machine ~fuel:machine_fuel ~engine c
                          ~entry ~args
                      with
                      | r ->
                          obs_of r.Bs_sim.Machine.outcome r.Bs_sim.Machine.r0
                      | exception Memimage.Fault msg ->
                          obs_of (image_fault msg) 0L
                    in
                    let crash bucket =
                      Crash
                        { bucket;
                          details =
                            Printf.sprintf
                              "%s: reference %s, machine %s" ename
                              (obs_str ref_obs) (obs_str eng_obs) }
                    in
                    match (ref_obs, eng_obs) with
                    | a, b when a = b -> check rest
                    | Value _, Value _ ->
                        crash
                          (Bucket.make ~detail:ename
                             Bucket.Result_mismatch)
                    | _, Fuel ->
                        crash (Bucket.hang ~detail:ename ())
                    | _, Trap t ->
                        crash
                          (Bucket.make ~detail:(ename ^ ":" ^ t)
                             Bucket.Trap_divergence)
                    | _, Value _ ->
                        (* the reference trapped: it never ran out of
                           fuel here *)
                        crash
                          (Bucket.make ~detail:(ename ^ ":none")
                             Bucket.Trap_divergence)))
          in
          check engines)

let describe = function
  | Agree o -> "agree: " ^ obs_str o
  | Skip why -> "skipped: " ^ why
  | Crash { bucket; details } ->
      Printf.sprintf "CRASH [%s] %s" (Bucket.key bucket) details

(* --- intermittent-power replay ----------------------------------------- *)

(* Replay a program under a recorded power-failure configuration and
   classify the outcome into the shared bucket namespace.  The oracle is
   the same binary's own fault-free machine run: a restore rolls state
   back exactly, so the intermittent run must reproduce the fault-free
   checksum bit for bit — any mismatch is a checkpoint/restore bug. *)

type power_verdict = {
  p_bucket : Bucket.t option;  (* None: completed without a restore *)
  p_details : string;
}

let describe_power v =
  match v.p_bucket with
  | Some b -> Printf.sprintf "POWER [%s] %s" (Bucket.key b) v.p_details
  | None -> "power: " ^ v.p_details

let run_power ?train ?(engine = Bs_sim.Machine.Jit) ~source ~entry ~args
    ~(power : Corpus.power_meta) () : power_verdict =
  let train =
    match train with Some t -> t | None -> [ (entry, Gen.train_args) ]
  in
  match Driver.compile ~config:Driver.bitspec_config ~source ~train () with
  | exception e ->
      let d = Driver.diag_of_exn e in
      { p_bucket = Some (Bucket.of_diag ~detail:"power" d);
        p_details = "failed to compile: " ^ Diag.to_string d }
  | c -> (
      (* the compile's training run built this image: it fits *)
      let golden = Driver.run_machine ~engine c ~entry ~args in
      match golden.Bs_sim.Machine.outcome with
      | Outcome.Out_of_fuel | Outcome.Trapped _ | Outcome.Livelock ->
          { p_bucket = Some (Bucket.hang ());
            p_details =
              "fault-free run did not finish: "
              ^ Outcome.to_string golden.Bs_sim.Machine.outcome }
      | Outcome.Finished -> (
          let open Bs_sim in
          let expected = golden.Machine.r0 in
          let steps = golden.Machine.ctr.Counters.instrs in
          let fuel = Outcome.hang_fuel ~steps ~factor:8 in
          let trace =
            Powertrace.create ~seed:power.Corpus.pw_seed
              ~hot_pcs:(Campaign.hot_pcs_of c.Driver.program)
              power.Corpus.pw_dist
          in
          let pw =
            { Machine.trace; policy = power.Corpus.pw_policy;
              max_retries = power.Corpus.pw_retries }
          in
          let r = Driver.run_machine ~fuel ~power:pw ~engine c ~entry ~args in
          let ctr = r.Machine.ctr in
          let stats =
            Printf.sprintf "%d restores, %d checkpoints, %d re-executed instrs"
              ctr.Counters.restores ctr.Counters.checkpoints
              ctr.Counters.reexec_instrs
          in
          (* the power campaign's classification, mapped onto the
             oracle's bucket keys *)
          let p_bucket, p_details =
            match Campaign.classify_power ~expected r with
            | Campaign.P_livelock -> (Some (Bucket.reexec_livelock ()), stats)
            | Campaign.P_hung -> (Some (Bucket.hang ()), stats)
            | Campaign.P_trapped t ->
                ( Some
                    (Bucket.make ~detail:(Outcome.trap_name t)
                       Bucket.Trap_divergence),
                  "trapped under power failures: " ^ Outcome.trap_message t )
            | Campaign.P_sdc r0 ->
                ( Some (Bucket.make ~detail:"power" Bucket.Result_mismatch),
                  Printf.sprintf "checksum %Ld, fault-free %Ld after %s" r0
                    expected stats )
            | Campaign.P_restored _ ->
                (Some (Bucket.restored ()), stats ^ ", correct checksum")
            | Campaign.P_completed ->
                (None, "completed without an outage (" ^ stats ^ ")")
          in
          { p_bucket; p_details }))

(* --- corpus replay ------------------------------------------------------ *)

let replay ?engine (m : Corpus.meta) source =
  let train = [ (m.Corpus.entry, m.Corpus.train) ] in
  let entry = m.Corpus.entry and args = m.Corpus.args in
  match m.Corpus.power with
  | Some power ->
      let v = run_power ~train ?engine ~source ~entry ~args ~power () in
      (Option.map Bucket.key v.p_bucket, describe_power v)
  | None ->
      let v =
        run ?plant:m.Corpus.fault ~train ?engine ~source ~entry ~args ()
      in
      let key =
        match v with
        | Crash { bucket; _ } -> Some (Bucket.key bucket)
        | Agree _ | Skip _ -> None
      in
      (key, describe v)
