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

   Two failure policies.  [Strict] is fail-fast: the first pass failure
   propagates as an exception.  [Degrade] isolates faults per function:
   when the squeezer, the verifier, or the register allocator fails on one
   function, that function falls back to its baseline (pre-squeeze) form,
   a structured diagnostic is recorded, and the rest of the module still
   ships as BITSPEC.  Module-level passes roll back to a snapshot and are
   skipped on failure.  [compile] returns the accumulated diagnostics next
   to the binary. *)

type arch = Baseline | Bitspec_arch | Thumb

type mode = Strict | Degrade

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
   to exercise the degradation machinery (and prove in tests that a
   degraded module still runs to the right checksum).  [Fault_miscompile]
   is different in kind: instead of raising (which degradation would catch
   and repair) it silently corrupts the function's code after every pass
   and verification has run — a planted miscompile that only a
   differential oracle can see. *)
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
  diagnostics : Diag.t list;
  remarks : Bs_obs.Remark.t list;
}

let describe_exn = function
  | Failure m | Invalid_argument m -> m
  | Injected_fault m -> m
  | Lexer.Error (m, _) | Parser.Error (m, _) | Typecheck.Error (m, _) -> m
  | Lower.Error m -> m
  | Verifier.Invalid m -> "verifier: " ^ m
  | Interp.Trap m -> "interpreter trap: " ^ m
  | Memimage.Layout_error d -> Diag.to_string d
  | Memimage.Fault m -> "memory fault: " ^ m
  | e -> Printexc.to_string e

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
    the in-flight module. *)
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

let lower_to_machine ?(orig_first = false) (m : Ir.modul) ~arch : Asm.program =
  assemble_funcs m ~arch
    (List.map (lower_one_func ~arch ~orig_first) m.Ir.funcs)

(** [compile ~config ~source ~train] runs the full pipeline on MiniC
    source.  [train] supplies the profiling runs (ignored by the baseline
    pipeline).  In [Degrade] mode pass failures are isolated per function
    (falling back to the baseline compilation of that function) and
    reported in [diagnostics]; [Strict] (the default) fails fast. *)
let compile ?(mode = Strict) ?pass_fault ?profile_key
    ~config ~source ?setup ~train () : compiled =
  let degrade = mode = Degrade in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  (* Per-compile remark sink: passes append here; the result carries the
     canonically-sorted list, so printing is identical at any --jobs. *)
  let remarks_acc = ref [] in
  let remark r = remarks_acc := r :: !remarks_acc in
  let m =
    ref (Bs_obs.Trace.with_span "frontend" (fun () -> Lower.compile source))
  in
  (* Module-level pass with snapshot/rollback: on failure in degrade mode
     the module is restored and the pass skipped. *)
  let guarded ~phase ~code name f =
    Bs_obs.Trace.with_span name @@ fun () ->
    if degrade then begin
      let snap = Ir.copy_module !m in
      match f () with
      | () -> true
      | exception e ->
          m := snap;
          add
            (Diag.error ~code ~phase
               (Printf.sprintf "%s failed (%s); pass skipped" name
                  (describe_exn e)));
          false
    end
    else begin f (); true end
  in
  ignore
    (guarded ~phase:Diag.Expand ~code:"BS-EXP-01" "expander" (fun () ->
         ignore (Expander.run !m config.expander);
         Verifier.verify_exn !m));
  let cfg_ok =
    guarded ~phase:Diag.Cfg_prep ~code:"BS-CFG-01" "CFG preparation"
      (fun () ->
        ignore (Cfg_prep.run !m);
        Verifier.verify_exn !m)
  in
  (* The pre-squeeze snapshot: the baseline (non-speculative) form every
     degraded function falls back to. *)
  let baseline = lazy (Ir.copy_module !m) in
  let baseline_func fname =
    match Ir.find_func (Lazy.force baseline) fname with
    | Some f -> Ir.copy_func f
    | None -> invalid_arg ("no baseline form for " ^ fname)
  in
  let restore_func fname =
    let bf = baseline_func fname in
    (!m).Ir.funcs <-
      List.map
        (fun (g : Ir.func) -> if g.Ir.fname = fname then bf else g)
        (!m).Ir.funcs
  in
  if degrade then ignore (Lazy.force baseline);
  let profile, squeeze_stats =
    if config.arch = Bitspec_arch && config.speculate && cfg_ok then begin
      let run_profile () =
        Bs_obs.Trace.with_span "profile" (fun () ->
            profile_module !m ?setup ~train ())
      in
      match
        (* Sharing is only sound when the pre-squeeze module is the pure
           function of (source, expander) the key encodes — injected pass
           faults and degrade-mode rollbacks both break that, so they
           bypass the memo. *)
        match profile_key with
        | Some k when (not degrade) && pass_fault = None ->
            Bs_exec.Memo.find_or_add profile_tbl k run_profile
        | _ -> run_profile ()
      with
      | exception e when degrade ->
          add
            (Diag.error ~code:"BS-PRO-01" ~phase:Diag.Profile
               (Printf.sprintf
                  "training run failed (%s); speculation disabled"
                  (describe_exn e)));
          (None, None)
      | profile ->
          let total = Squeezer.fresh_stats () in
          List.iter
            (fun (f : Ir.func) ->
              let squeeze () =
                Bs_obs.Trace.with_span ~args:[ ("fn", f.Ir.fname) ]
                  "squeeze"
                @@ fun () ->
                maybe_pass_fault pass_fault Fault_squeeze f.Ir.fname;
                let s =
                  Squeezer.run_func ~remarks:remark !m f ~profile
                    ~heuristic:config.heuristic
                in
                Verifier.check_func f;
                total.Squeezer.squeezed <-
                  total.Squeezer.squeezed + s.Squeezer.squeezed;
                total.Squeezer.truncs <-
                  total.Squeezer.truncs + s.Squeezer.truncs;
                total.Squeezer.exts <- total.Squeezer.exts + s.Squeezer.exts;
                total.Squeezer.regions <-
                  total.Squeezer.regions + s.Squeezer.regions
              in
              if degrade then
                try squeeze ()
                with e ->
                  restore_func f.Ir.fname;
                  add
                    (Diag.error ~code:"BS-SQZ-01" ~phase:Diag.Squeeze
                       ~func:f.Ir.fname
                       (Printf.sprintf
                          "squeezing failed (%s); function degraded to \
                           the baseline pipeline"
                          (describe_exn e)))
              else squeeze ())
            (!m).Ir.funcs;
          (if config.compare_elim then
             ignore
               (guarded ~phase:Diag.Compare_elim ~code:"BS-CEL-01"
                  "compare elimination" (fun () ->
                    ignore (Compare_elim.run ~remarks:remark !m);
                    Verifier.verify_exn !m)));
          (if config.bitmask_elide then
             ignore
               (guarded ~phase:Diag.Bitmask_elide ~code:"BS-BME-01"
                  "bitmask elision" (fun () ->
                    ignore (Bitmask_elide.run ~remarks:remark !m);
                    Verifier.verify_exn !m)));
          ignore
            (guarded ~phase:Diag.Opt ~code:"BS-OPT-01" "late optimisations"
               (fun () ->
                 ignore (Bs_opt.Constfold.run !m);
                 ignore (Bs_opt.Dce.run !m)));
          (* final validation; in degrade mode an invalid function falls
             back to its baseline form instead of aborting the module *)
          if degrade then
            List.iter
              (fun (f : Ir.func) ->
                try Verifier.check_func f
                with e ->
                  restore_func f.Ir.fname;
                  add
                    (Diag.error ~code:"BS-VRF-01" ~phase:Diag.Verify
                       ~func:f.Ir.fname
                       (Printf.sprintf
                          "post-squeeze verification failed (%s); function \
                           degraded to the baseline pipeline"
                          (describe_exn e))))
              (!m).Ir.funcs
          else Verifier.verify_exn !m;
          (Some profile, Some total)
    end
    else (None, None)
  in
  (* Planted miscompile: applied after all passes and verification so the
     corruption ships in the binary (and in [ir]); the pristine lowering
     of the same source is the only witness. *)
  (match pass_fault with
  | Some { fault_pass = Fault_miscompile; fault_func } ->
      plant_miscompile !m fault_func
  | _ -> ());
  let funcs =
    Bs_obs.Trace.with_span "lower" @@ fun () ->
    List.map
      (fun (f : Ir.func) ->
        let lower f =
          maybe_pass_fault pass_fault Fault_regalloc f.Ir.fname;
          lower_one_func ~arch:config.arch ~orig_first:config.orig_first f
        in
        if degrade then
          try lower f
          with e ->
            add
              (Diag.error ~code:"BS-RA-01" ~phase:Diag.Regalloc
                 ~func:f.Ir.fname
                 (Printf.sprintf
                    "back-end failed (%s); function degraded to the \
                     baseline pipeline"
                    (describe_exn e)));
            let bf = baseline_func f.Ir.fname in
            (!m).Ir.funcs <-
              List.map
                (fun (g : Ir.func) ->
                  if g.Ir.fname = f.Ir.fname then bf else g)
                (!m).Ir.funcs;
            (* the baseline form must lower; if it cannot, the failure is
               not degradable and propagates (try_compile catches it) *)
            lower_one_func ~arch:config.arch ~orig_first:config.orig_first
              bf
        else lower f)
      (!m).Ir.funcs
  in
  let program =
    Bs_obs.Trace.with_span "assemble" (fun () ->
        assemble_funcs !m ~arch:config.arch funcs)
  in
  { ir = !m; program; config; profile; squeeze_stats;
    diagnostics = List.rev !diags;
    remarks = List.sort Bs_obs.Remark.compare !remarks_acc }

(** Total compilation: never raises.  Degrade-mode [compile], with any
    escaping exception (front-end errors included) converted into
    diagnostics. *)
let try_compile ?pass_fault ~config ~source ?setup ~train () :
    (compiled, Diag.t list) result =
  match compile ~mode:Degrade ?pass_fault ~config ~source ?setup ~train () with
  | c -> Ok c
  | exception e ->
      let phase, line =
        match e with
        | Lexer.Error (_, l) | Parser.Error (_, l) -> (Diag.Parse, Some l)
        | Typecheck.Error (_, l) -> (Diag.Typecheck, Some l)
        | Lower.Error _ -> (Diag.Lowering, None)
        | _ -> (Diag.Other, None)
      in
      Error
        [ Diag.error ?line ~code:"BS-FE-01" ~phase (describe_exn e) ]

(** Run the compiled binary on the machine model.  [fault] injects a
    single bit flip (see {!Bs_sim.Machine.fault}); [power] runs under
    injected power failures with checkpoint/restore
    (see {!Bs_sim.Machine.power}); [engine] picks the dispatch engine
    (results are identical across engines; [Jit] is the default). *)
let run_machine ?setup ?(fuel = 1_000_000_000) ?fault ?power
    ?(engine = Machine.Jit) (c : compiled) ~entry ~args =
  let mem = Memimage.create c.ir in
  (match setup with Some f -> f mem | None -> ());
  let mode =
    if c.config.arch = Bitspec_arch then Bs_isa.Isa.Bitspec
    else Bs_isa.Isa.Classic
  in
  let r =
    Machine.run ~config:{ Machine.mode; fuel; fault; power; engine }
      c.program mem ~entry ~args
  in
  let mips = Bs_sim.Counters.simulated_mips r.Machine.ctr in
  if mips > 0.0 then Bs_obs.Metrics.set_gauge machine_mips_gauge mips;
  r

(** Run the reference interpreter on the same IR (for differential
    checks). *)
let run_reference ?setup (c : compiled) ~entry ~args =
  let t0 = Unix.gettimeofday () in
  let r, _ = Interp.run_fresh ?setup c.ir ~entry ~args in
  set_interp_mips ~steps:r.Interp.steps ~wall_s:(Unix.gettimeofday () -. t0);
  r
