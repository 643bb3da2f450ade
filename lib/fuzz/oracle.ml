open Bs_support
open Bs_interp
open Bitspec

(* The differential oracle.

   The reference semantics of a program is its pristine lowering run on
   the IR interpreter.  Each engine below compiles the same source through
   the full pipeline (degrade mode, so pass failures surface as
   diagnostics rather than exceptions) and simulates it on the machine
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

(* The interpreter's traps carry free-form messages; coarsen them to the
   same stable names [Outcome.trap_name] gives machine traps, so a trap
   that classifies identically on both sides is not a divergence. *)
let interp_trap_name msg =
  let has sub =
    let n = String.length sub and m = String.length msg in
    let rec go i = i + n <= m && (String.sub msg i n = sub || go (i + 1)) in
    go 0
  in
  if has "division" || has "remainder" then "div0"
  else if has "stack overflow" then "stack-overflow"
  else if has "out-of-bounds" || has "memory" then "memory-fault"
  else if has "unknown" then "unknown-function"
  else "trap"

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
    ?(interp_engine = Interp.Compiled) ~source ~entry ~args () =
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
      let opts = { Interp.profile = None; fuel; engine = interp_engine } in
      let ref_obs, machine_fuel =
        match Interp.run_fresh ~opts m ~entry ~args with
        | r, _ -> (
            match r.Interp.outcome with
            | Outcome.Finished ->
                ( Value (mask32 (Option.value r.Interp.ret ~default:0L)),
                  (* a machine run executes a small constant factor more
                     instructions than IR steps; 20x + slack detects hangs
                     quickly without false positives (the budget formula
                     is shared with the injection campaigns) *)
                  Outcome.hang_fuel ~steps:r.Interp.steps ~factor:20 )
            | Outcome.Out_of_fuel -> (Fuel, fuel)
            | Outcome.Trapped t -> (Trap (Outcome.trap_name t), fuel)
            | Outcome.Livelock ->
                (* the interpreter never runs under a power trace *)
                (Fuel, fuel))
        | exception Interp.Trap msg -> (Trap (interp_trap_name msg), fuel)
        | exception Memimage.Fault _ -> (Trap "memory-fault", fuel)
      in
      match ref_obs with
      | Fuel -> Skip "reference interpreter ran out of fuel"
      | _ ->
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
                  Compile_cache.try_compile
                    ~key:
                      (Printf.sprintf "fuzz|%s|%s|%s|%s" src_key
                         (Driver.config_tag config) train_key plant_key)
                    (fun () ->
                      Driver.try_compile ?pass_fault:plant ~config ~source
                        ~train ())
                with
                | Error diags ->
                    let d =
                      match Diag.errors diags with
                      | d :: _ -> d
                      | [] -> Diag.error ~code:"BS-FE-01" ~phase:Diag.Other
                                "compilation failed without a diagnostic"
                    in
                    Crash
                      { bucket = Bucket.of_diag ~detail:ename d;
                        details =
                          Printf.sprintf "%s failed to compile: %s" ename
                            (Diag.to_string d) }
                | Ok c -> (
                    match Diag.errors c.Driver.diagnostics with
                    | d :: _ ->
                        Crash
                          { bucket = Bucket.of_diag ~detail:ename d;
                            details =
                              Printf.sprintf "%s degraded during compilation: %s"
                                ename (Diag.to_string d) }
                    | [] -> (
                        let eng_obs =
                          match
                            Driver.run_machine ~fuel:machine_fuel ~engine c
                              ~entry ~args
                          with
                          | r -> (
                              match r.Bs_sim.Machine.outcome with
                              | Outcome.Finished ->
                                  Value (mask32 r.Bs_sim.Machine.r0)
                              | Outcome.Out_of_fuel -> Fuel
                              | Outcome.Trapped t ->
                                  Trap (Outcome.trap_name t)
                              | Outcome.Livelock ->
                                  (* no power trace in a fuzz run *)
                                  Fuel)
                          | exception Bs_sim.Machine.Sim_trap t ->
                              Trap (Outcome.trap_name t)
                          | exception Memimage.Fault _ -> Trap "memory-fault"
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
                        | Trap _, Value _ ->
                            crash
                              (Bucket.make ~detail:(ename ^ ":none")
                                 Bucket.Trap_divergence)
                        | Fuel, _ ->
                            (* unreachable: reference fuel was handled *)
                            check rest)))
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
  match Driver.try_compile ~config:Driver.bitspec_config ~source ~train () with
  | Error diags ->
      let d =
        match Diag.errors diags with
        | d :: _ -> d
        | [] ->
            Diag.error ~code:"BS-FE-01" ~phase:Diag.Other
              "compilation failed without a diagnostic"
      in
      { p_bucket = Some (Bucket.of_diag ~detail:"power" d);
        p_details = "failed to compile: " ^ Diag.to_string d }
  | Ok c -> (
      match Driver.run_machine ~engine c ~entry ~args with
      | exception e ->
          { p_bucket = Some (Bucket.hang ());
            p_details = "fault-free run raised: " ^ Printexc.to_string e }
      | golden when golden.Bs_sim.Machine.outcome <> Outcome.Finished ->
          { p_bucket = Some (Bucket.hang ());
            p_details =
              "fault-free run did not finish: "
              ^ Outcome.to_string golden.Bs_sim.Machine.outcome }
      | golden -> (
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
          match Driver.run_machine ~fuel ~power:pw ~engine c ~entry ~args with
          | exception Machine.Sim_trap t ->
              { p_bucket =
                  Some
                    (Bucket.make ~detail:(Outcome.trap_name t)
                       Bucket.Trap_divergence);
                p_details = "trapped under power failures" }
          | exception Memimage.Fault m ->
              { p_bucket =
                  Some
                    (Bucket.make ~detail:"memory-fault"
                       Bucket.Trap_divergence);
                p_details = "memory fault under power failures: " ^ m }
          | r -> (
              let ctr = r.Machine.ctr in
              let stats =
                Printf.sprintf
                  "%d restores, %d checkpoints, %d re-executed instrs"
                  ctr.Counters.restores ctr.Counters.checkpoints
                  ctr.Counters.reexec_instrs
              in
              match r.Machine.outcome with
              | Outcome.Livelock ->
                  { p_bucket = Some (Bucket.reexec_livelock ());
                    p_details = stats }
              | Outcome.Out_of_fuel ->
                  { p_bucket = Some (Bucket.hang ()); p_details = stats }
              | Outcome.Trapped t ->
                  { p_bucket =
                      Some
                        (Bucket.make ~detail:(Outcome.trap_name t)
                           Bucket.Trap_divergence);
                    p_details = stats }
              | Outcome.Finished ->
                  if r.Machine.r0 <> expected then
                    { p_bucket =
                        Some (Bucket.make ~detail:"power" Bucket.Result_mismatch);
                      p_details =
                        Printf.sprintf
                          "checksum %Ld, fault-free %Ld after %s"
                          r.Machine.r0 expected stats }
                  else if ctr.Counters.restores > 0 then
                    { p_bucket = Some (Bucket.restored ());
                      p_details = stats ^ ", correct checksum" }
                  else
                    { p_bucket = None;
                      p_details = "completed without an outage (" ^ stats ^ ")" })))
