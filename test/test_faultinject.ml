open Bs_support
open Bitspec
open Bs_sim
module Memimage = Bs_interp.Memimage

(* Exact fault trials.  [Faultinject.run_trial] answers each trial from a
   record of the fault-free ("golden") run: a flip the golden run never
   reads settles at once, any other trial forks from a snapshot and stops
   where it rejoins the golden run.  Every verdict must be the one a run
   from the entry gives, whether the record is new or reused, and a
   record must serve only images that equal its own wherever the golden
   run reads. *)

(* The verdict of a run from the entry, classified as [run_trial]
   classifies. *)
let scratch_verdict ~mode ~fuel ~program ~mem ~entry ~args ~expected
    ~golden_misspecs fault =
  let config =
    { Machine.mode; fuel; fault = Some fault; power = None;
      engine = Machine.Jit }
  in
  let r = Machine.run ~config program (mem ()) ~entry ~args in
  match r.Machine.outcome with
  | Outcome.Trapped k -> Faultinject.Trapped k
  | Outcome.Out_of_fuel | Outcome.Livelock -> Faultinject.Hung
  | Outcome.Finished ->
      if r.Machine.r0 = expected then
        let extra = r.Machine.ctr.Counters.misspecs - golden_misspecs in
        if extra > 0 then Faultinject.Detected extra else Faultinject.Masked
      else Faultinject.Sdc r.Machine.r0

let show (v : Faultinject.verdict) =
  match v with
  | Faultinject.Detected n -> Printf.sprintf "detected +%d" n
  | Faultinject.Sdc r0 -> Printf.sprintf "sdc %Ld" r0
  | Faultinject.Trapped k -> "trapped " ^ Outcome.trap_message k
  | v -> Faultinject.verdict_name v

(* A fresh physical copy of a program: records are keyed by the program
   itself, so the first trial on the copy records its golden run. *)
let cold (p : Bs_backend.Asm.program) =
  { p with Bs_backend.Asm.delta = p.Bs_backend.Asm.delta }

(* The fault-free run: instructions, checksum, misspeculations. *)
let golden_of c ~mem ~entry ~args =
  let r =
    Machine.run
      ~config:{ Machine.default_config with fuel = 2_000_000 }
      c.Driver.program (mem ()) ~entry ~args
  in
  if r.Machine.outcome = Outcome.Finished then
    Some
      (r.Machine.ctr.Counters.instrs, r.Machine.r0,
       r.Machine.ctr.Counters.misspecs)
  else None

(* --- the shortcut is exact ----------------------------------------------- *)

(* Flips of every target, drawn by [gen_fault] at any instruction of the
   golden run; memory flips land in the globals or at the top of the
   stack, where the golden run reads.  Each is a trial on a new record
   and again on the same record, under the campaigns' hang budget, and
   three of them also under a fuel one short of the golden count. *)
let check_seed seed =
  match Test_engines.compile_seed seed with
  | None -> true
  | Some c -> (
      let entry = Bs_fuzz.Gen.entry
      and args = [ Bs_fuzz.Gen.entry_arg seed ] in
      let mem () = Memimage.create c.Driver.ir in
      match golden_of c ~mem ~entry ~args with
      | None -> true (* the fault-free run does not finish: vacuous *)
      | Some (g, expected, golden_misspecs) ->
          let mode = Bs_isa.Isa.Bitspec in
          let sample = mem () in
          let size = Memimage.size sample
          and globals_end = sample.Memimage.globals_end in
          let rng = Rng.create (Int64.of_int (seed + 11)) in
          let faults =
            List.init 12 (fun i ->
                let mem_lo, mem_hi =
                  if i mod 3 = 2 then (size - 256, size - 1)
                  else (Memimage.globals_base, globals_end + 64)
                in
                Faultinject.gen_fault rng ~max_instr:g ~mem_lo ~mem_hi)
          in
          let check fuel fault =
            let program = cold c.Driver.program in
            let trial () =
              (Faultinject.run_trial ~mode ~fuel ~program ~mem ~entry ~args
                 ~expected ~golden_misspecs fault)
                .Faultinject.verdict
            in
            let first = trial () in
            let again = trial () in
            let want =
              scratch_verdict ~mode ~fuel ~program ~mem ~entry ~args ~expected
                ~golden_misspecs fault
            in
            first = want && again = want
            || QCheck.Test.fail_reportf
                 "seed %d (%d instrs), fuel %d, %s: from the entry %s, new \
                  record %s, reused record %s"
                 seed g fuel
                 (Faultinject.describe_fault fault)
                 (show want) (show first) (show again)
          in
          List.for_all (check (4 * g)) faults
          && List.for_all (check (g - 1))
               (List.filteri (fun i _ -> i < 3) faults))

let prop_exact =
  QCheck.Test.make
    ~name:"fault trials from a golden record equal trials from the entry"
    ~count:40
    QCheck.(int_bound 1_000_000)
    check_seed

(* --- each path fires ----------------------------------------------------- *)

(* One register flip per path, half-way through CRC32's BITSPEC run: r12
   is never read, r3 is overwritten before the next snapshot, and r2
   corrupts the checksum.  At the run's edge: a flip of r0 just before
   the final HALT corrupts the result, and one due after it never
   lands. *)
let test_paths () =
  let c, setup, entry, args = Test_engines.kernel "CRC32" in
  let mem () =
    let m = Memimage.create c.Driver.ir in
    setup m;
    m
  in
  match golden_of c ~mem ~entry ~args with
  | None -> Alcotest.fail "CRC32: the fault-free run does not finish"
  | Some (g, expected, golden_misspecs) ->
      let mode = Bs_isa.Isa.Bitspec and fuel = 4 * g in
      let program = c.Driver.program in
      List.iter
        (fun (what, path, at_instr, reg, bit, verdict) ->
          let fault =
            { Machine.at_instr; target = Machine.Flip_reg (reg, bit) }
          in
          let before = Faultinject.path_count path in
          let v =
            (Faultinject.run_trial ~mode ~fuel ~program ~mem ~entry ~args
               ~expected ~golden_misspecs fault)
              .Faultinject.verdict
          in
          Alcotest.(check int)
            (what ^ ": trials on its path")
            (before + 1)
            (Faultinject.path_count path);
          Alcotest.(check string) (what ^ ": verdict") verdict
            (Faultinject.verdict_name v);
          Alcotest.(check string)
            (what ^ ": as from the entry")
            (show
               (scratch_verdict ~mode ~fuel ~program ~mem ~entry ~args
                  ~expected ~golden_misspecs fault))
            (show v))
        [ ("r12, never read", Faultinject.Settled, g / 2, 12, 9, "masked");
          ("r3, overwritten", Faultinject.Rejoined, g / 2, 3, 0, "masked");
          ("r2, the checksum", Faultinject.Ran, g / 2, 2, 0, "sdc");
          ("r0 before HALT", Faultinject.Ran, g, 0, 0, "sdc");
          ("r0 after HALT", Faultinject.Settled, g + 1, 0, 0, "masked") ]

(* A misspeculation in a callee sends the rest of that call down the
   handler's full-width path; once the call returns, the caller runs on
   as the golden run does.  A flip there rejoins with one misspeculation
   more than the golden had at that point, and the verdict keeps it. *)
let mix_source =
  "u8 buf[64];\n\
   u32 mix(u32 k) {\n\
   \  u32 acc = 0;\n\
   \  for (u32 i = 0; i < 16; i += 1) {\n\
   \    acc = (acc + buf[(i + k) & 63]) & 255;\n\
   \  }\n\
   \  return acc;\n\
   }\n\
   u32 f(u32 n) {\n\
   \  u32 s = 0;\n\
   \  for (u32 j = 0; j < n; j += 1) { s = s + mix(j); }\n\
   \  return s;\n\
   }\n"

let test_detected_rejoins () =
  let c =
    Driver.compile ~config:Driver.bitspec_config ~source:mix_source
      ~train:[ ("f", [ 40L ]) ] ()
  in
  let entry = "f" and args = [ 40L ] in
  let mem () =
    let m = Memimage.create c.Driver.ir in
    for i = 0 to 63 do
      Memimage.set_global m c.Driver.ir ~name:"buf" ~index:i
        (Int64.of_int (i land 3))
    done;
    m
  in
  match golden_of c ~mem ~entry ~args with
  | None -> Alcotest.fail "the fault-free run does not finish"
  | Some (g, expected, golden_misspecs) ->
      let mode = Bs_isa.Isa.Bitspec and fuel = 4 * g in
      let program = cold c.Driver.program in
      let fault =
        { Machine.at_instr = 245; target = Machine.Flip_reg (0, 15) }
      in
      let before = Faultinject.path_count Faultinject.Rejoined in
      let v =
        (Faultinject.run_trial ~mode ~fuel ~program ~mem ~entry ~args
           ~expected ~golden_misspecs fault)
          .Faultinject.verdict
      in
      Alcotest.(check int) "rejoined" (before + 1)
        (Faultinject.path_count Faultinject.Rejoined);
      Alcotest.(check string) "verdict" "detected +1" (show v);
      Alcotest.(check string) "as from the entry"
        (show
           (scratch_verdict ~mode ~fuel ~program ~mem ~entry ~args ~expected
              ~golden_misspecs fault))
        (show v)

(* --- a record serves only its own image ----------------------------------- *)

let sum_source =
  "u8 buf[64];\n\
   u32 f(u32 n) {\n\
   \  u32 s = 0;\n\
   \  for (u32 i = 0; i < n; i += 1) { s = s + buf[i]; }\n\
   \  return s;\n\
   }\n"

(* Two images of one program, entry and args that differ where the
   golden run reads (buf[3]) get a record each and their own verdicts;
   an image that differs only where it never reads (mid-image) shares
   the first record and still gets the verdict of a run from the
   entry. *)
let test_images_checked () =
  let c =
    Driver.compile ~config:Driver.bitspec_config ~source:sum_source
      ~train:[ ("f", [ 40L ]) ] ()
  in
  let entry = "f" and args = [ 40L ] in
  let image edit () =
    let m = Memimage.create c.Driver.ir in
    for i = 0 to 63 do
      Memimage.set_global m c.Driver.ir ~name:"buf" ~index:i (Int64.of_int i)
    done;
    edit m;
    m
  in
  let base = image ignore
  and inside = image (fun m ->
      Memimage.set_global m c.Driver.ir ~name:"buf" ~index:3 200L)
  and outside = image (fun m ->
      Memimage.write_int m ~width:8 (Memimage.size m / 2) 0x5A)
  in
  match golden_of c ~mem:base ~entry ~args with
  | None -> Alcotest.fail "the fault-free run does not finish"
  | Some (g, expected, golden_misspecs) ->
      Alcotest.(check int64) "checksum" 780L expected;
      let mode = Bs_isa.Isa.Bitspec and fuel = 4 * g in
      let program = cold c.Driver.program in
      let trial mem fault =
        let v =
          (Faultinject.run_trial ~mode ~fuel ~program ~mem ~entry ~args
             ~expected ~golden_misspecs fault)
            .Faultinject.verdict
        in
        ( show v,
          show
            (scratch_verdict ~mode ~fuel ~program ~mem ~entry ~args ~expected
               ~golden_misspecs fault) )
      in
      let flip r b =
        { Machine.at_instr = g / 2; target = Machine.Flip_reg (r, b) }
      in
      let dead = flip 12 4 and live = flip 0 20 in
      let built = Faultinject.records_built () in
      let settled = Faultinject.path_count Faultinject.Settled in
      let check what mem fault want records =
        let got, scratch = trial mem fault in
        Alcotest.(check string) (what ^ ": as from the entry") scratch got;
        Alcotest.(check string) (what ^ ": verdict") want got;
        Alcotest.(check int) (what ^ ": records") (built + records)
          (Faultinject.records_built ())
      in
      check "base image" base dead "masked" 1;
      Alcotest.(check int) "r12 is never read" (settled + 1)
        (Faultinject.path_count Faultinject.Settled);
      check "buf[3] changed" inside dead "sdc 977" 2;
      check "mid-image byte changed" outside dead "masked" 2;
      check "mid-image byte changed, forked" outside live
        (show
           (scratch_verdict ~mode ~fuel ~program ~mem:base ~entry ~args
              ~expected ~golden_misspecs live))
        2

let suite =
  [ QCheck_alcotest.to_alcotest prop_exact;
    Alcotest.test_case "each path answers one pinned CRC32 trial" `Quick
      test_paths;
    Alcotest.test_case "a detected flip that rejoins keeps its misspeculation"
      `Quick test_detected_rejoins;
    Alcotest.test_case "a record serves only images it was made from"
      `Quick test_images_checked ]
