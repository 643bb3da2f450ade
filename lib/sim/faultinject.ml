open Bs_support
module Memimage = Bs_interp.Memimage

(* Deterministic single-bit fault injection (soft-error model).

   A campaign draws faults from a seeded splitmix64 stream — a dynamic
   instruction index, a hardware target (register slice bits, memory bits,
   or the Δ redirect register) and a bit — runs the program once per
   fault, and classifies each run against the fault-free execution:

   - [Masked]    the checksum is unchanged and the misspeculation hardware
                 never fired beyond the fault-free count: the flip landed
                 in dead state or was overwritten;
   - [Detected]  the checksum is unchanged AND extra misspeculation events
                 occurred: the flip pushed a value out of its slice, the
                 overflow detector caught it, and the handler's full-width
                 re-execution repaired the damage — the paper's recovery
                 hardware acting as a free soft-error net;
   - [Trapped]   the run died on a structured trap (division by zero,
                 PC escape, memory fault, …): detected by construction;
   - [Sdc]       the run finished with a wrong checksum — silent data
                 corruption, the outcome resilience work cares about;
   - [Hung]      the fuel budget ran out: the flip broke termination.

   The classification currency is {!Outcome.t}, shared with the reference
   interpreter, whose checksum is the differential oracle. *)

type verdict =
  | Masked
  | Detected of int        (* extra misspeculation events *)
  | Trapped of Outcome.trap
  | Sdc of int64           (* the corrupted checksum *)
  | Hung

type trial = { tfault : Machine.fault; verdict : verdict }

let verdict_name = function
  | Masked -> "masked"
  | Detected _ -> "detected"
  | Trapped _ -> "trapped"
  | Sdc _ -> "sdc"
  | Hung -> "hang"

let verdict_names = [ "masked"; "detected"; "trapped"; "sdc"; "hang" ]

let describe_fault (f : Machine.fault) =
  match f.Machine.target with
  | Machine.Flip_reg (r, b) ->
      Printf.sprintf "flip r%d bit %d (slice byte %d) @ instr %d" r b (b / 8)
        f.Machine.at_instr
  | Machine.Flip_mem (a, b) ->
      Printf.sprintf "flip mem[0x%x] bit %d @ instr %d" a b f.Machine.at_instr
  | Machine.Flip_delta b ->
      Printf.sprintf "flip Δ bit %d @ instr %d" b f.Machine.at_instr

let describe_trial t =
  let extra =
    match t.verdict with
    | Detected n -> Printf.sprintf " (+%d misspec%s)" n (if n = 1 then "" else "s")
    | Sdc v -> Printf.sprintf " (checksum %Ld)" v
    | Trapped k -> Printf.sprintf " (%s)" (Outcome.trap_message k)
    | Masked | Hung -> ""
  in
  Printf.sprintf "%-28s -> %s%s" (describe_fault t.tfault)
    (verdict_name t.verdict) extra

(* Draw one fault.  Register flips dominate (they model the latch upsets
   the slice ALU sits behind); the register is one of r0-r12 — the
   allocatable R0-R10 and the spill scratch registers R11-R12
   ([Regalloc.scratch0/1]) — never SP/LR: flipping the stack pointer
   tests the memory system, which the memory target already covers more
   directly. *)
let gen_fault rng ~max_instr ~mem_lo ~mem_hi : Machine.fault =
  let at_instr = Rng.int_in rng 1 (max 1 max_instr) in
  let target =
    match Rng.int rng 6 with
    | 0 | 1 | 2 ->
        Machine.Flip_reg (Rng.int rng 13 (* r0-r12 *), Rng.int rng 32)
    | 3 | 4 ->
        Machine.Flip_mem (Rng.int_in rng mem_lo (max mem_lo mem_hi),
                          Rng.int rng 8)
    | _ -> Machine.Flip_delta (Rng.int rng 4)
  in
  { Machine.at_instr; target }

(* Register flips only — the target population of the bit-level
   vulnerability validation, where each trial must map to one register
   bit position. *)
let gen_reg_fault rng ~max_instr : Machine.fault =
  let at_instr = Rng.int_in rng 1 (max 1 max_instr) in
  { Machine.at_instr;
    target = Machine.Flip_reg (Rng.int rng 13, Rng.int rng 32) }

(* --- exact trials from a golden record -----------------------------------

   Everything a trial does before its flip repeats the fault-free
   ("golden") run, and many flips land where the golden run never reads
   again.  So [run_trial] answers from a record of the golden run, built
   once per (program, entry, args, mode, fuel) on a trial's own image,
   which it then puts back as it was.  The record holds:

   - how the run ends: outcome or trap, r0, misspeculations, steps;
   - up to [max_snaps] evenly spaced snapshots, each the architectural
     state ({!Machine.arch}) plus the bytes written so far with their
     values; the first is the entry state;
   - the footprint F: every D$ line the run touches — the caches start
     cold, so the first touch of each line is a miss — widened by the 3
     bytes a 4-byte access reaches past a line's end, with the initial
     image's bytes there;
   - the register bits no instruction of the program reads (r0 counts
     as read: the verdict reads it).

   The rejoin rule.  A trial whose state after c instructions equals the
   golden's after c — registers, pc, Δ, mode, compare state and memory
   on F — runs exactly the golden's remaining instructions, because the
   golden reads nothing outside F.  Register bits no instruction reads
   may differ, and so may Δ when the golden has no misspeculation after
   c: Δ is read only by a misspeculation.  Such a trial has rejoined the
   golden run and ends like it, with golden total - golden at c + trial
   at c misspeculations.  The verdict reads only r0, the outcome (traps
   included) and that count; cycles and cache state, which a fork does
   not reproduce, never enter it.  So the shortcut is exact.

   - At the flip the state differs only in the flipped location, so a
     flip of an unread register bit, of a byte off F, or of Δ with no
     misspeculation left settles with no simulation.
   - Any other trial forks from the last snapshot at or before its flip
     and checks the rule at each later snapshot count, at the point of
     the Jit loop where the snapshots were taken (between two steps).
     A trial that never rejoins runs to its end.

   Checked, not trusted: a record serves only an image of the recorded
   size whose bytes on F equal the recorded ones.  The golden run reads
   nothing else, so on such an image it runs the same instructions and
   writes the same bytes.  Any other image gets a record of its own. *)

type ending =
  | Ran of { outcome : Outcome.t; r0 : int64; misspecs : int; steps : int }
  | Raised of Outcome.trap

type snap = {
  arch : Machine.arch;
  written : int;     (* the first [written] entries of [w_addr] *)
  vals : Bytes.t;    (* their values at this point *)
}

type golden = {
  size : int;
  f_lo : int array;  (* F as sorted disjoint byte intervals [lo, hi) *)
  f_hi : int array;
  f_off : int array; (* where each interval's bytes start in [f_init] *)
  f_init : Bytes.t;
  w_addr : int array;            (* bytes written, in first-write order *)
  w_pos : (int, int) Hashtbl.t;  (* address -> index in [w_addr] *)
  snaps : snap array;            (* ascending instruction counts *)
  ending : ending;
  live : int array;  (* per register: the bits some instruction reads *)
}

let max_snaps = 32
let line_bytes = (Cache.l1d ()).Cache.line_bytes

(* Runs that watch their writes stop at least this often to empty the
   undo journal, which bounds it. *)
let drain_every = 1 lsl 14

(* bytes past its first that one access can reach (a 32-bit load) *)
let reach = 3

let live_bits (p : Bs_backend.Asm.program) =
  let live = Array.make Bs_isa.Isa.num_regs 0 in
  live.(0) <- 0xFFFFFFFF;
  Array.iter
    (fun insn ->
      List.iter
        (fun (r, bytes) ->
          for k = 0 to 3 do
            if bytes land (1 lsl k) <> 0 then
              live.(r) <- live.(r) lor (0xFF lsl (8 * k))
          done)
        (Bs_isa.Isa.read_bytes insn))
    p.Bs_backend.Asm.code;
  live

(* The interval of F holding [a], or -1. *)
let f_find g a =
  let rec go lo hi =
    (* the answer, if any, is in [lo, hi) *)
    if hi - lo <= 1 then
      if lo < hi && g.f_lo.(lo) <= a && a < g.f_hi.(lo) then lo else -1
    else
      let mid = (lo + hi) / 2 in
      if g.f_lo.(mid) <= a then go mid hi else go lo mid
  in
  go 0 (Array.length g.f_lo)

let ending_of ~fuel (r : Machine.result) =
  Ran
    { outcome = r.Machine.outcome; r0 = r.Machine.r0;
      misspecs = r.Machine.ctr.Counters.misspecs;
      steps = Int.min r.Machine.ctr.Counters.instrs fuel }

(* Run the golden on [m] with snapshots and the footprint, then put
   [m]'s bytes back: the undo journal names every byte written, and its
   first entry for a byte holds the byte's initial value. *)
let record ~mode ~fuel ~program ~entry ~args (m : Memimage.t) : golden =
  let lines = Hashtbl.create 64 in
  let on_dmiss addr = Hashtbl.replace lines (addr / line_bytes) () in
  let w_pos = Hashtbl.create 256 in
  let w_addr = ref (Array.make 256 0) and w_init = Buffer.create 256 in
  let drain () =
    for k = 0 to m.Memimage.j_len - 1 do
      let a = m.Memimage.j_addr.(k) in
      if not (Hashtbl.mem w_pos a) then begin
        let n = Buffer.length w_init in
        if n = Array.length !w_addr then
          w_addr := Array.append !w_addr (Array.make n 0);
        !w_addr.(n) <- a;
        Hashtbl.add w_pos a n;
        Buffer.add_char w_init (Bytes.get m.Memimage.j_old k)
      end
    done;
    Memimage.journal_commit m
  in
  (* a snapshot every [step] instructions; when they would exceed
     [max_snaps], every other one goes and [step] doubles *)
  let snaps = ref [] and step = ref 1 in
  let at_stop st ctr =
    drain ();
    let c = ctr.Counters.instrs in
    if c mod !step = 0 then begin
      if List.length !snaps = max_snaps then begin
        step := 2 * !step;
        snaps :=
          List.filter (fun s -> s.arch.Machine.a_instrs mod !step = 0) !snaps
      end;
      let n = Buffer.length w_init in
      let vals =
        Bytes.init n (fun i ->
            Bigarray.Array1.get m.Memimage.bytes !w_addr.(i))
      in
      snaps := { arch = Machine.capture st ctr; written = n; vals } :: !snaps
    end;
    Some (Int.min (c - (c mod !step) + !step) (c + drain_every))
  in
  Memimage.journal_start m;
  let ending =
    match
      Machine.resume ~fuel ~fault:None ~on_dmiss ~stop_at:0 at_stop program m
        (Machine.start ~mode program m ~entry ~args)
    with
    | Some r -> ending_of ~fuel r
    | None -> assert false (* [at_stop] never ends the run *)
    | exception Machine.Sim_trap k -> Raised k
    | exception Memimage.Fault msg -> Raised (Outcome.Memory_fault msg)
  in
  drain ();
  Memimage.journal_stop m;
  let w_addr = Array.sub !w_addr 0 (Buffer.length w_init) in
  Array.iteri
    (fun i a -> Bigarray.Array1.set m.Memimage.bytes a (Buffer.nth w_init i))
    w_addr;
  (* F: the touched lines, widened and merged, within the image *)
  let size = Memimage.size m in
  let spans =
    List.fold_left
      (fun acc line ->
        let lo = line * line_bytes in
        let hi = Int.min size (lo + line_bytes + reach) in
        match acc with
        | _ when lo >= size -> acc
        | (plo, phi) :: rest when lo <= phi -> (plo, Int.max phi hi) :: rest
        | _ -> (lo, hi) :: acc)
      []
      (List.sort compare (Hashtbl.fold (fun l () acc -> l :: acc) lines []))
  in
  let spans = Array.of_list (List.rev spans) in
  let f_off = Array.make (Array.length spans) 0 in
  let total =
    Array.fold_left
      (fun (i, off) (lo, hi) ->
        f_off.(i) <- off;
        (i + 1, off + hi - lo))
      (0, 0) spans
    |> snd
  in
  let f_init = Bytes.create total in
  Array.iteri
    (fun i (lo, hi) ->
      for k = 0 to hi - lo - 1 do
        Bytes.set f_init (f_off.(i) + k)
          (Bigarray.Array1.get m.Memimage.bytes (lo + k))
      done)
    spans;
  { size; f_lo = Array.map fst spans; f_hi = Array.map snd spans; f_off;
    f_init; w_addr; w_pos; snaps = Array.of_list (List.rev !snaps); ending;
    live = live_bits program }

(* [m] holds the bytes the record was made from, wherever the run reads. *)
let applies g (m : Memimage.t) =
  let bytes = m.Memimage.bytes in
  let rec same lo off k =
    k < 0
    || Bigarray.Array1.unsafe_get bytes (lo + k)
       = Bytes.unsafe_get g.f_init (off + k)
       && same lo off (k - 1)
  in
  let rec spans i =
    i < 0
    || same g.f_lo.(i) g.f_off.(i) (g.f_hi.(i) - g.f_lo.(i) - 1)
       && spans (i - 1)
  in
  Memimage.size m = g.size && spans (Array.length g.f_lo - 1)

(* The golden has no misspeculation after snapshot [s]. *)
let quiet_after g s =
  match g.ending with
  | Ran e -> e.misspecs = s.arch.Machine.a_misspecs
  | Raised _ -> false

(* The rejoin rule at snapshot [s]; [written] holds every byte the trial
   wrote since it forked. *)
let rejoins g s (st : Superblock.state) (m : Memimage.t) written =
  let a = s.arch in
  let regs_agree () =
    let ok = ref true in
    Array.iteri
      (fun r live ->
        if (st.Superblock.regs.(r) lxor a.Machine.a_regs.(r)) land live <> 0
        then ok := false)
      g.live;
    !ok
  in
  let bytes = m.Memimage.bytes in
  (* F-bytes the golden wrote by [s], then F-bytes only the trial wrote,
     which the golden still holds at their initial values *)
  let golden_bytes_agree () =
    let ok = ref true and i = ref 0 in
    while !ok && !i < s.written do
      let addr = g.w_addr.(!i) in
      if Bigarray.Array1.get bytes addr <> Bytes.get s.vals !i
         && f_find g addr >= 0
      then ok := false;
      incr i
    done;
    !ok
  in
  let trial_bytes_agree () =
    Hashtbl.fold
      (fun addr () ok ->
        ok
        &&
        match Hashtbl.find_opt g.w_pos addr with
        | Some i when i < s.written -> true
        | _ ->
            let k = f_find g addr in
            k < 0
            || Bigarray.Array1.get bytes addr
               = Bytes.get g.f_init (g.f_off.(k) + addr - g.f_lo.(k)))
      written true
  in
  st.Superblock.pc = a.Machine.a_pc
  && st.Superblock.mode = a.Machine.a_mode
  && st.Superblock.cmp_a = a.Machine.a_cmp_a
  && st.Superblock.cmp_b = a.Machine.a_cmp_b
  && st.Superblock.cmp_width8 = a.Machine.a_cmp_width8
  && (st.Superblock.delta = a.Machine.a_delta || quiet_after g s)
  && regs_agree () && golden_bytes_agree () && trial_bytes_agree ()

(* The last snapshot at or before instruction count [c]. *)
let snap_index g c =
  let k = ref 0 in
  Array.iteri (fun i s -> if s.arch.Machine.a_instrs <= c then k := i) g.snaps;
  !k

(* The rejoin rule at the flip, which lands after [max at_instr 1 - 1]
   instructions. *)
let settles g (f : Machine.fault) =
  let c = max f.Machine.at_instr 1 - 1 in
  (* no snapshot: the golden trapped before its first step, as will the
     trial *)
  Array.length g.snaps = 0
  || (match g.ending with Ran e -> c >= e.steps | Raised _ -> false)
  ||
  match f.Machine.target with
  | Machine.Flip_reg (r, b) ->
      r >= 0 && r < Array.length g.live && b >= 0 && b < 32
      && g.live.(r) land (1 lsl b) = 0
  | Machine.Flip_mem (a, _) -> a >= 0 && a < g.size && f_find g a < 0
  | Machine.Flip_delta _ -> quiet_after g g.snaps.(snap_index g c)

type path = Settled | Rejoined | Ran

let path_counts = Array.init 3 (fun _ -> Atomic.make 0)
let path_slot = function Settled -> 0 | Rejoined -> 1 | Ran -> 2
let path_count p = Atomic.get path_counts.(path_slot p)
let took p = Atomic.incr path_counts.(path_slot p)

(* Fork from the last snapshot at or before the flip and run with the
   fault, checking the rejoin rule at every later snapshot.  Returns how
   the trial ends and what to add to that ending's misspeculations. *)
let fork g ~fuel ~program (m : Memimage.t) (f : Machine.fault) =
  let k = snap_index g (max f.Machine.at_instr 1 - 1) in
  let s = g.snaps.(k) in
  for i = 0 to s.written - 1 do
    Bigarray.Array1.set m.Memimage.bytes g.w_addr.(i) (Bytes.get s.vals i)
  done;
  let n = Array.length g.snaps in
  let next = ref (k + 1) in
  let written = Hashtbl.create 64 in
  let offset = ref 0 in
  let stop_after c =
    Int.min g.snaps.(!next).arch.Machine.a_instrs (c + drain_every)
  in
  let at_stop st ctr =
    for i = 0 to m.Memimage.j_len - 1 do
      Hashtbl.replace written m.Memimage.j_addr.(i) ()
    done;
    Memimage.journal_commit m;
    let c = ctr.Counters.instrs and s = g.snaps.(!next) in
    if c < s.arch.Machine.a_instrs then Some (stop_after c)
    else if rejoins g s st m written then begin
      offset := ctr.Counters.misspecs - s.arch.Machine.a_misspecs;
      None
    end
    else begin
      incr next;
      if !next < n then Some (stop_after c)
      else begin
        Memimage.journal_stop m;
        Some max_int
      end
    end
  in
  let stop_at =
    if k + 1 < n then begin
      Memimage.journal_start m;
      stop_after s.arch.Machine.a_instrs
    end
    else max_int
  in
  match
    Machine.resume ~fuel ~fault:(Some f) ~stop_at at_stop program m s.arch
  with
  | None ->
      took Rejoined;
      (g.ending, !offset)
  | Some r ->
      took Ran;
      (ending_of ~fuel r, 0)
  | exception Machine.Sim_trap t ->
      took Ran;
      (Raised t, 0)
  | exception Memimage.Fault msg ->
      took Ran;
      (Raised (Outcome.Memory_fault msg), 0)

(* --- the record table ---------------------------------------------------- *)

type key = {
  k_program : Bs_backend.Asm.program;  (* compared physically *)
  k_entry : string;
  k_args : int64 list;
  k_mode : Bs_isa.Isa.mode;
  k_fuel : int;
}

let max_records = 16
let records : (key * golden) list ref = ref []  (* newest first *)
let records_lock = Mutex.create ()

let locked f =
  Mutex.lock records_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock records_lock) f

let records_made = Atomic.make 0
let records_built () = Atomic.get records_made

let golden_for key (m : Memimage.t) =
  let same k =
    k.k_program == key.k_program && k.k_entry = key.k_entry
    && k.k_args = key.k_args && k.k_mode = key.k_mode && k.k_fuel = key.k_fuel
  in
  let find () =
    locked (fun () ->
        List.filter_map
          (fun (k, g) -> if same k then Some g else None)
          !records)
    |> List.find_opt (fun g -> applies g m)
  in
  match find () with
  | Some g -> g
  | None -> (
      let g =
        record ~mode:key.k_mode ~fuel:key.k_fuel ~program:key.k_program
          ~entry:key.k_entry ~args:key.k_args m
      in
      Atomic.incr records_made;
      (* another domain may have recorded the same run meanwhile *)
      match find () with
      | Some g -> g
      | None ->
          locked (fun () ->
              records :=
                (key, g)
                :: List.filteri (fun i _ -> i < max_records - 1) !records);
          g)

let classify ~expected ~golden_misspecs ending ~extra =
  match ending with
  | Raised k -> Trapped k
  | Ran { outcome = Outcome.Out_of_fuel | Outcome.Livelock; _ } -> Hung
  | Ran { outcome = Outcome.Finished | Outcome.Trapped _; r0; misspecs; _ } ->
      if r0 = expected then
        let extra = misspecs + extra - golden_misspecs in
        if extra > 0 then Detected extra else Masked
      else Sdc r0

let run_trial ~mode ~fuel ~(program : Bs_backend.Asm.program)
    ~(mem : unit -> Memimage.t) ~entry ~args ~expected ~golden_misspecs
    (fault : Machine.fault) : trial =
  let m = mem () in
  let g =
    golden_for
      { k_program = program; k_entry = entry; k_args = args; k_mode = mode;
        k_fuel = fuel }
      m
  in
  let ending, extra =
    if settles g fault then begin
      took Settled;
      (g.ending, 0)
    end
    else fork g ~fuel ~program m fault
  in
  { tfault = fault;
    verdict = classify ~expected ~golden_misspecs ending ~extra }
type summary = {
  trials : int;
  masked : int;
  detected : int;
  trapped : int;
  sdc : int;
  hung : int;
}

let summarize trials =
  let s =
    List.fold_left
      (fun s t ->
        match t.verdict with
        | Masked -> { s with masked = s.masked + 1 }
        | Detected _ -> { s with detected = s.detected + 1 }
        | Trapped _ -> { s with trapped = s.trapped + 1 }
        | Sdc _ -> { s with sdc = s.sdc + 1 }
        | Hung -> { s with hung = s.hung + 1 })
      { trials = 0; masked = 0; detected = 0; trapped = 0; sdc = 0; hung = 0 }
      trials
  in
  { s with trials = List.length trials }

let summary_rows s =
  [ ("masked", s.masked); ("detected", s.detected); ("trapped", s.trapped);
    ("sdc", s.sdc); ("hang", s.hung) ]
