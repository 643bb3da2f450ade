open Bs_support
open Bs_ir
open Bs_frontend
open Bs_interp
open Bs_backend
open Bs_sim

(* The BITSPEC compilation driver (Figure 4): front-end → expander →
   CFG preparation → profile → squeeze → BITSPEC optimisations → back-end
   → binary, plus the baseline pipeline that skips the speculative
   stages.

   One failure policy, fail-fast: the first pass that raises stops the
   compile with [Failed], a structured diagnostic carrying the phase's
   stable code (and the function, for the per-function passes).
   Front-end errors escape as they are. *)

type arch = Baseline | Bitspec_arch | Thumb

type config = {
  arch : arch;
  heuristic : Profile.heuristic;
  expander : Expander.config;
  speculate : bool;               (* RQ2: false = static narrowing only *)
  compare_elim : bool;
  bitmask_elide : bool;
  orig_first : bool;
      (* RQ5: invert the allocator's handler branch weights, giving
         CFG_orig first pick of registers *)
}

let bitspec_config =
  { arch = Bitspec_arch; heuristic = Profile.Hmax;
    expander = Expander.default; speculate = true; compare_elim = true;
    bitmask_elide = true; orig_first = false }

let baseline_config =
  { bitspec_config with arch = Baseline; speculate = false;
    compare_elim = false; bitmask_elide = false }

(** RQ9: the compact-ISA build (Thumb-like: 8 registers, 2-address ops). *)
let thumb_config = { baseline_config with arch = Thumb }

let config_of ~arch ~heuristic ~no_expander =
  let base =
    match arch with
    | Baseline -> baseline_config
    | Bitspec_arch -> bitspec_config
    | Thumb -> thumb_config
  in
  let base = { base with heuristic } in
  if no_expander then { base with expander = Expander.disabled } else base

(* A complete, injective rendering of a configuration — the compiler half
   of every compile-cache key.  Every field that can change generated code
   appears; adding a config field without extending this tag would let the
   cache conflate distinct builds, so keep them in lockstep. *)
let config_tag (c : config) =
  Printf.sprintf "%s:%s:s%b:ce%b:bm%b:of%b:u%d.f%d.l%d"
    (match c.arch with
    | Baseline -> "base"
    | Bitspec_arch -> "spec"
    | Thumb -> "thumb")
    (Profile.heuristic_name c.heuristic)
    c.speculate c.compare_elim c.bitmask_elide c.orig_first
    c.expander.Expander.unroll_factor c.expander.Expander.max_fn_size
    c.expander.Expander.max_loop_size

(* The expander-only slice of [config_tag].  Two configurations with equal
   expander tags shape identical pre-squeeze modules from the same source,
   so their training runs observe identical profiles — this is the
   configuration half of a profile-sharing key (see [compile]'s
   [profile_key]). *)
let expander_tag (c : config) =
  Printf.sprintf "u%d.f%d.l%d" c.expander.Expander.unroll_factor
    c.expander.Expander.max_fn_size c.expander.Expander.max_loop_size

(* Compiler-level fault injection: force one pass to fail on one function,
   to exercise the failure path end to end (the compile stops with the
   pass's diagnostic, and the fuzz oracle buckets it).  [Fault_miscompile]
   is different in kind: instead of raising it silently corrupts the
   function's code after every pass and verification has run — a planted
   miscompile that only a differential oracle can see. *)
type injected_pass = Fault_squeeze | Fault_regalloc | Fault_miscompile

type pass_fault = { fault_pass : injected_pass; fault_func : string }

exception Injected_fault of string

let maybe_pass_fault pass_fault pass fname =
  match pass_fault with
  | Some pf when pf.fault_pass = pass && pf.fault_func = fname ->
      raise (Injected_fault ("injected pass fault in " ^ fname))
  | _ -> ()

(* Silently change the semantics of [fname]: flip the first binary
   operation (Add<->Sub, And<->Or, ...), or failing that negate the first
   comparison.  The mutation is type- and SSA-preserving, so the verifier
   accepts it and nothing downstream can tell — exactly the shape of bug
   the fuzzer's differential oracle exists to catch.  Division never
   appears on the right of the table, so the mutation cannot introduce a
   trap that was not already reachable. *)
let plant_miscompile (m : Ir.modul) fname =
  match Ir.find_func m fname with
  | None -> ()
  | Some f ->
      let flip_bin = function
        | Ir.Add -> Ir.Sub | Ir.Sub -> Ir.Add
        | Ir.Mul -> Ir.Add
        | Ir.Udiv -> Ir.Urem | Ir.Sdiv -> Ir.Srem
        | Ir.Urem -> Ir.And | Ir.Srem -> Ir.And
        | Ir.And -> Ir.Or | Ir.Or -> Ir.And | Ir.Xor -> Ir.Or
        | Ir.Shl -> Ir.Lshr | Ir.Lshr -> Ir.Shl | Ir.Ashr -> Ir.Shl
      in
      let flip_cmp = function
        | Ir.Eq -> Ir.Ne | Ir.Ne -> Ir.Eq
        | Ir.Ult -> Ir.Uge | Ir.Ule -> Ir.Ugt
        | Ir.Ugt -> Ir.Ule | Ir.Uge -> Ir.Ult
        | Ir.Slt -> Ir.Sge | Ir.Sle -> Ir.Sgt
        | Ir.Sgt -> Ir.Sle | Ir.Sge -> Ir.Slt
      in
      let instrs =
        List.concat_map (fun (b : Ir.block) -> b.Ir.instrs) f.Ir.blocks
      in
      let first p = List.find_opt p instrs in
      let is_bin i = match i.Ir.op with Ir.Bin _ -> true | _ -> false in
      let is_cmp i = match i.Ir.op with Ir.Cmp _ -> true | _ -> false in
      (match first is_bin with
      | Some i -> (
          match i.Ir.op with
          | Ir.Bin (op, a, b) -> i.Ir.op <- Ir.Bin (flip_bin op, a, b)
          | _ -> ())
      | None -> (
          match first is_cmp with
          | Some i -> (
              match i.Ir.op with
              | Ir.Cmp (op, a, b) -> i.Ir.op <- Ir.Cmp (flip_cmp op, a, b)
              | _ -> ())
          | None -> ()))

type compiled = {
  ir : Ir.modul;
  program : Asm.program;
  config : config;
  profile : Profile.t option;
  squeeze_stats : Squeezer.stats option;
  remarks : Bs_obs.Remark.t list;
}

exception Failed of Diag.t

let () =
  Printexc.register_printer (function
    | Failed d -> Some (Diag.to_string d)
    | _ -> None)

let describe_exn = function
  | Failure m | Invalid_argument m -> m
  | Injected_fault m -> m
  | Lexer.Error (m, _) | Parser.Error (m, _) | Typecheck.Error (m, _) -> m
  | Lower.Error m -> m
  | Verifier.Invalid m -> "verifier: " ^ m
  | Memimage.Layout_error d -> Diag.to_string d
  | Memimage.Fault m -> "memory fault: " ^ m
  | e -> Printexc.to_string e

(* Run [f] as one phase of the pipeline: an exception escaping it stops
   the compile as [Failed] with the phase's code, naming [func] when the
   phase runs per function. *)
let fail_as ?func ~code ~phase what f =
  try f ()
  with e ->
    raise
      (Failed
         (Diag.error ?func ~code ~phase
            (Printf.sprintf "%s failed (%s)" what (describe_exn e))))

let diag_of_exn = function
  | Failed d -> d
  | e ->
      let phase, line =
        match e with
        | Lexer.Error (_, l) | Parser.Error (_, l) -> (Diag.Parse, Some l)
        | Typecheck.Error (_, l) -> (Diag.Typecheck, Some l)
        | Lower.Error _ -> (Diag.Lowering, None)
        | _ -> (Diag.Other, None)
      in
      Diag.error ?line ~code:"BS-FE-01" ~phase (describe_exn e)

(* Throughput gauges: last observed interpreter / machine-model speed,
   millions of (IR steps | instructions) per wall second.  Volatile by
   nature — wall time varies run to run — so they live in the volatile
   snapshot section. *)
let interp_mips_gauge = Bs_obs.Metrics.gauge ~volatile:true "interp_mips"
let machine_mips_gauge = Bs_obs.Metrics.gauge ~volatile:true "machine_mips"

let set_interp_mips ~steps ~wall_s =
  if wall_s > 0.0 && steps > 0 then
    Bs_obs.Metrics.set_gauge interp_mips_gauge
      (float_of_int steps /. wall_s /. 1e6)

(** Profile [m] by interpreting it on the training runs: each run is an
    (entry, args) pair; [setup] (if any) initialises workload inputs given
    the in-flight module.  A training run that traps fails with its
    error line. *)
let profile_module (m : Ir.modul) ?setup
    ~(train : (string * int64 list) list) () =
  let profile = Profile.create () in
  let opts = { Interp.default_opts with profile = Some profile } in
  let t0 = Unix.gettimeofday () in
  let steps = ref 0 in
  List.iter
    (fun (entry, args) ->
      let s = Option.map (fun f -> f m) setup in
      let r, _ = Interp.run_fresh ~opts ?setup:s m ~entry ~args in
      Outcome.refuse_trap ~engine:"interpreter" r.Interp.outcome;
      steps := !steps + r.Interp.steps)
    train;
  set_interp_mips ~steps:!steps ~wall_s:(Unix.gettimeofday () -. t0);
  profile

(* Profiling is heuristic-independent: it runs on the pre-squeeze module,
   which only the front-end and the expander shape.  A MAX/AVG/MIN sweep
   therefore repeats the same training run three times.  Callers that can
   content-address the training input (source digest + expander tag +
   input identity) pass [profile_key] to [compile] and every
   configuration sharing that pre-squeeze form reuses one run.  Shared
   profiles are read-only downstream — the squeezer only queries them.
   Keyed by (fname, iid), which deterministic front-end + expander make
   stable across identical modules. *)
let profile_tbl : (string, Profile.t) Bs_exec.Memo.t =
  Bs_exec.Memo.create ~cap:256 ()

(* Back-end for one function: instruction selection + register
   allocation. *)
let lower_one_func ~arch ~orig_first (f : Ir.func) =
  let slices = arch = Bitspec_arch in
  let mf = Isel.lower_func ~slices f in
  let ra =
    match arch with
    | Thumb -> Regalloc.run ~regs:Thumb.thumb_regs ~orig_first mf
    | Baseline | Bitspec_arch -> Regalloc.run ~orig_first mf
  in
  (mf, ra)

let assemble_funcs (m : Ir.modul) ~arch funcs =
  (* the assembler only resolves addresses — the layout table alone is
     enough; building (zeroing, initialising) a full image here cost
     several ms per compile *)
  let layout = Memimage.layout_table m in
  let addr_of_global name =
    match Hashtbl.find_opt layout name with
    | Some a -> a
    | None -> raise (Memimage.Fault ("unknown global " ^ name))
  in
  let p = Asm.assemble ~addr_of_global funcs in
  match arch with Thumb -> Thumb.expand p | Baseline | Bitspec_arch -> p

(** [compile ~config ~source ~train] runs the full pipeline on MiniC
    source.  [train] supplies the profiling runs (ignored by the baseline
    pipeline).  The first pass failure stops the compile with [Failed]. *)
let compile ?pass_fault ?profile_key ~config ~source ?setup ~train () :
    compiled =
  (* Per-compile remark sink: passes append here; the result carries the
     canonically-sorted list, so printing is identical at any --jobs. *)
  let remarks_acc = ref [] in
  let remark r = remarks_acc := r :: !remarks_acc in
  let m = Bs_obs.Trace.with_span "frontend" (fun () -> Lower.compile source) in
  (* A module-level pass: its span, its diagnostic code. *)
  let pass ~phase ~code name f =
    Bs_obs.Trace.with_span name (fun () -> fail_as ~code ~phase name f)
  in
  pass ~phase:Diag.Expand ~code:"BS-EXP-01" "expander" (fun () ->
      ignore (Expander.run m config.expander);
      Verifier.verify_exn m);
  pass ~phase:Diag.Cfg_prep ~code:"BS-CFG-01" "CFG preparation" (fun () ->
      ignore (Cfg_prep.run m);
      Verifier.verify_exn m);
  let profile, squeeze_stats =
    if config.arch = Bitspec_arch && config.speculate then begin
      let run_profile () =
        Bs_obs.Trace.with_span "profile" (fun () ->
            profile_module m ?setup ~train ())
      in
      let profile =
        fail_as ~code:"BS-PRO-01" ~phase:Diag.Profile "training run"
          (fun () ->
            match profile_key with
            | Some k -> Bs_exec.Memo.find_or_add profile_tbl k run_profile
            | None -> run_profile ())
      in
      let total = Squeezer.fresh_stats () in
      List.iter
        (fun (f : Ir.func) ->
          fail_as ~func:f.Ir.fname ~code:"BS-SQZ-01" ~phase:Diag.Squeeze
            "squeezing"
          @@ fun () ->
          Bs_obs.Trace.with_span ~args:[ ("fn", f.Ir.fname) ] "squeeze"
          @@ fun () ->
          maybe_pass_fault pass_fault Fault_squeeze f.Ir.fname;
          let s =
            Squeezer.run_func ~remarks:remark m f ~profile
              ~heuristic:config.heuristic
          in
          Verifier.check_func f;
          total.Squeezer.squeezed <-
            total.Squeezer.squeezed + s.Squeezer.squeezed;
          total.Squeezer.truncs <- total.Squeezer.truncs + s.Squeezer.truncs;
          total.Squeezer.exts <- total.Squeezer.exts + s.Squeezer.exts;
          total.Squeezer.regions <-
            total.Squeezer.regions + s.Squeezer.regions)
        m.Ir.funcs;
      if config.compare_elim then
        pass ~phase:Diag.Compare_elim ~code:"BS-CEL-01" "compare elimination"
          (fun () ->
            ignore (Compare_elim.run ~remarks:remark m);
            Verifier.verify_exn m);
      if config.bitmask_elide then
        pass ~phase:Diag.Bitmask_elide ~code:"BS-BME-01" "bitmask elision"
          (fun () ->
            ignore (Bitmask_elide.run ~remarks:remark m);
            Verifier.verify_exn m);
      pass ~phase:Diag.Opt ~code:"BS-OPT-01" "late optimisations" (fun () ->
          ignore (Bs_opt.Constfold.run m);
          ignore (Bs_opt.Dce.run m));
      fail_as ~code:"BS-VRF-01" ~phase:Diag.Verify
        "post-squeeze verification" (fun () -> Verifier.verify_exn m);
      (Some profile, Some total)
    end
    else (None, None)
  in
  (* Planted miscompile: applied after all passes and verification so the
     corruption ships in the binary (and in [ir]); the pristine lowering
     of the same source is the only witness. *)
  (match pass_fault with
  | Some { fault_pass = Fault_miscompile; fault_func } ->
      plant_miscompile m fault_func
  | _ -> ());
  let funcs =
    Bs_obs.Trace.with_span "lower" @@ fun () ->
    List.map
      (fun (f : Ir.func) ->
        fail_as ~func:f.Ir.fname ~code:"BS-RA-01" ~phase:Diag.Regalloc
          "back-end"
        @@ fun () ->
        maybe_pass_fault pass_fault Fault_regalloc f.Ir.fname;
        lower_one_func ~arch:config.arch ~orig_first:config.orig_first f)
      m.Ir.funcs
  in
  let program =
    Bs_obs.Trace.with_span "assemble" (fun () ->
        assemble_funcs m ~arch:config.arch funcs)
  in
  { ir = m; program; config; profile; squeeze_stats;
    remarks = List.sort Bs_obs.Remark.compare !remarks_acc }

(** [compile] with any escaping exception, front-end errors included,
    turned into its diagnostic. *)
let try_compile ?pass_fault ~config ~source ?setup ~train () :
    (compiled, Diag.t list) result =
  match compile ?pass_fault ~config ~source ?setup ~train () with
  | c -> Ok c
  | exception e -> Error [ diag_of_exn e ]

(** The machine mode a build runs in: the slice extension is on exactly
    for BITSPEC builds. *)
let machine_mode (c : compiled) =
  if c.config.arch = Bitspec_arch then Bs_isa.Isa.Bitspec
  else Bs_isa.Isa.Classic

(** Run the compiled binary on the machine model.  [fault] injects a
    single bit flip (see {!Bs_sim.Machine.fault}); [power] runs under
    injected power failures with checkpoint/restore
    (see {!Bs_sim.Machine.power}); [engine] picks the dispatch engine
    (results are identical across engines; [Jit] is the default). *)
let run_machine ?setup ?(fuel = 1_000_000_000) ?fault ?power
    ?(engine = Machine.Jit) (c : compiled) ~entry ~args =
  let mem = Memimage.create c.ir in
  (match setup with Some f -> f mem | None -> ());
  let r =
    Machine.run
      ~config:{ Machine.mode = machine_mode c; fuel; fault; power; engine }
      c.program mem ~entry ~args
  in
  let mips = Bs_sim.Counters.simulated_mips r.Machine.ctr in
  if mips > 0.0 then Bs_obs.Metrics.set_gauge machine_mips_gauge mips;
  r
