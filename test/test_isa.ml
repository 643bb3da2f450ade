open Bs_isa
open Bs_sim

(* ISA-level tests: encoder/decoder round-trips (including a random
   instruction generator), cache model behaviour, classic mode, and the
   DTS voltage solver. *)

let slice r b = { Isa.sl_reg = r; sl_byte = b }

let sample_insns : Isa.insn list =
  [ MOV (1, 2); MOVW (3, 0xBEEF); MOVT (4, 0x1234);
    ALU (OpAdd, 1, 2, Reg 3); ALU (OpSub, 5, 6, Imm 4095);
    ALU (OpLsl, 7, 8, Imm 13); MUL (1, 2, 3); DIV (Unsigned, 1, 2, 3);
    DIV (Signed, 4, 5, 6); CMP (7, Reg 8); CMP (9, Imm 100000);
    CSET (CUlt, 2); B 123456; BC (CSge, 999); BL 42; BX_LR;
    LDR (W8, Unsigned, 1, 2, 100); LDR (W16, Signed, 3, 4, 0);
    LDR (W32, Unsigned, 5, 13, 8192); STR (W8, 1, 2, 3);
    STR (W32, 4, 13, 16); SXT (W8, 1, 2); UXT (W16, 3, 4);
    BALU (BAdd, slice 1 0, slice 2 3, Sl (slice 3 1));
    BALU (BSub, slice 4 2, slice 5 0, BImm 15);
    BALU (BAnd, slice 0 0, slice 0 1, Sl (slice 0 2));
    BCMPS (slice 1 1, BImm 255); BCMPS (slice 2 2, Sl (slice 3 3));
    BLDRS (slice 1 0, 2, BOff 255); BLDRS (slice 1 0, 2, BIdx (slice 4 1));
    BLDRB (slice 5 2, 6, BOff 0); BLDRB (slice 5 2, 6, BIdx (slice 7 3));
    BSTRB (slice 8 1, 9, BOff 10); BSTRB (slice 8 1, 9, BIdx (slice 10 0));
    BEXT (Unsigned, 1, slice 2 2); BEXT (Signed, 3, slice 4 0);
    BTRN (slice 5 1, 6); BMOV (slice 1 0, slice 2 3); BMOVI (slice 3 2, 200);
    SETDELTA 4000; SETMODE Classic; SETMODE Bitspec; NOP; HALT ]

let test_roundtrip_samples () =
  List.iter
    (fun i ->
      let w = Encode.encode i in
      let i' = Encode.decode w in
      Alcotest.(check string) "roundtrip" (Isa.to_string i) (Isa.to_string i'))
    sample_insns

let gen_insn =
  let open QCheck.Gen in
  let reg = int_bound 15 in
  let sl = map2 (fun r b -> slice r b) reg (int_bound 3) in
  let cond =
    oneofl
      [ Isa.CEq; CNe; CUlt; CUle; CUgt; CUge; CSlt; CSle; CSgt; CSge ]
  in
  let aluop =
    oneofl [ Isa.OpAdd; OpSub; OpAnd; OpOrr; OpEor; OpLsl; OpLsr; OpAsr ]
  in
  let baluop = oneofl [ Isa.BAdd; BSub; BAnd; BOrr; BEor ] in
  let width = oneofl [ Isa.W8; W16; W32 ] in
  let sign = oneofl [ Isa.Signed; Isa.Unsigned ] in
  oneof
    [ map2 (fun a b -> Isa.MOV (a, b)) reg reg;
      map2 (fun a v -> Isa.MOVW (a, v)) reg (int_bound 0xFFFF);
      (let* op = aluop and* d = reg and* n = reg and* m = reg in
       return (Isa.ALU (op, d, n, Reg m)));
      (let* op = aluop and* d = reg and* n = reg and* v = int_bound 0x7FFF in
       return (Isa.ALU (op, d, n, Imm v)));
      (let* w = width and* s = sign and* d = reg and* n = reg
       and* off = int_bound 0x3FFF in
       return (Isa.LDR (w, s, d, n, off)));
      (let* op = baluop and* d = sl and* n = sl and* m = sl in
       return (Isa.BALU (op, d, n, Sl m)));
      (let* op = baluop and* d = sl and* n = sl and* v = int_bound 15 in
       return (Isa.BALU (op, d, n, BImm v)));
      (let* d = sl and* n = reg and* off = int_bound 255 in
       return (Isa.BLDRS (d, n, BOff off)));
      (let* d = sl and* n = reg and* x = sl in
       return (Isa.BLDRB (d, n, BIdx x)));
      (let* d = sl and* n = reg and* x = sl in
       return (Isa.BSTRB (d, n, BIdx x)));
      (let* s = sign and* d = reg and* x = sl in
       return (Isa.BEXT (s, d, x)));
      map2 (fun d s -> Isa.BTRN (d, s)) sl reg;
      map2 (fun d s -> Isa.BMOV (d, s)) sl sl;
      map2 (fun d v -> Isa.BMOVI (d, v)) sl (int_bound 255);
      map (fun t -> Isa.B t) (int_bound 0xFFFFF);
      map2 (fun c t -> Isa.BC (c, t)) cond (int_bound 0xFFFFF);
      map (fun v -> Isa.SETDELTA v) (int_bound 0xFFFF) ]

let prop_roundtrip =
  QCheck.Test.make ~name:"encode/decode roundtrip (random)" ~count:500
    (QCheck.make gen_insn)
    (fun i -> Isa.to_string (Encode.decode (Encode.encode i)) = Isa.to_string i)

(* --- cache model -------------------------------------------------------- *)

let test_cache_basics () =
  let c = Cache.create ~name:"t" ~size_bytes:1024 ~ways:2 ~line_bytes:32 in
  Alcotest.(check bool) "first access misses" false (Cache.access c 0);
  Alcotest.(check bool) "same line hits" true (Cache.access c 4);
  Alcotest.(check bool) "same line hits again" true (Cache.access c 31);
  Alcotest.(check bool) "next line misses" false (Cache.access c 32);
  Alcotest.(check int) "counted" 2 c.Cache.misses

let test_cache_lru () =
  (* 2-way set: three conflicting lines evict the least recently used *)
  let c = Cache.create ~name:"t" ~size_bytes:1024 ~ways:2 ~line_bytes:32 in
  let sets = c.Cache.sets in
  let a = 0 and b = sets * 32 and d = 2 * sets * 32 in
  ignore (Cache.access c a);
  ignore (Cache.access c b);
  ignore (Cache.access c a); (* a is MRU *)
  ignore (Cache.access c d); (* evicts b *)
  Alcotest.(check bool) "a survives" true (Cache.access c a);
  Alcotest.(check bool) "b evicted" false (Cache.access c b)

let test_cache_reset () =
  let c = Cache.l1d () in
  ignore (Cache.access c 64);
  Cache.reset c;
  Alcotest.(check int) "stats cleared" 0 (Cache.accesses c);
  Alcotest.(check bool) "cold again" false (Cache.access c 64)

(* Every field of a cache's record, by name, in a fixed order. *)
let cache_fields (c : Cache.t) =
  let slots name a =
    Array.to_list (Array.mapi (fun i v -> (Printf.sprintf "%s.(%d)" name i, v)) a)
  in
  [ ("tick", c.Cache.tick); ("hits", c.Cache.hits);
    ("misses", c.Cache.misses); ("last_line", c.Cache.last_line);
    ("last_slot", c.Cache.last_slot) ]
  @ slots "tags" c.Cache.tags @ slots "stamp" c.Cache.stamp

(* The hinted lookup against [access].  Two caches of 4 sets x 2 ways
   take one random stream over 16 lines, so lines are evicted and
   refilled in other ways all the time; one cache takes every address
   through [access], the other through [access_hinted] with one hint per
   4-byte word, as the simulator keeps one per PC.  A hint is as the
   stream left it (fresh, or stale after an eviction) or is overwritten
   first with the other way of the line's set, any slot of any set, or a
   value out of range.  Now and then both caches replay a few
   same-line hits with [bump_hits].  After every access the two must
   answer alike and their records must be equal field for field. *)
let prop_hinted_lookup =
  QCheck.Test.make ~name:"a hinted lookup leaves what access leaves"
    ~count:300
    QCheck.(pair (int_bound 1_000_000) (int_range 1 300))
    (fun (seed, n) ->
      let mk () =
        Cache.create ~name:"t" ~size_bytes:256 ~ways:2 ~line_bytes:32
      in
      let plain = mk () and hinted = mk () in
      let lines = 16 in
      let hints = Array.make (lines * 8) (-1) in
      let rng = Random.State.make [| seed |] in
      let line = ref 0 in
      for step = 1 to n do
        if Random.State.int rng 4 > 0 then line := Random.State.int rng lines;
        let addr = (!line * 32) + (4 * Random.State.int rng 8) in
        let i = addr / 4 in
        let base = (!line land (plain.Cache.sets - 1)) * plain.Cache.ways in
        (match Random.State.int rng 8 with
        | 0 -> hints.(i) <- base + ((hints.(i) - base + 1) land 1)
        | 1 -> hints.(i) <- Random.State.int rng (Array.length plain.Cache.tags)
        | 2 -> hints.(i) <- (if Random.State.bool rng then -7 else 1_000)
        | _ -> ());
        let hit = Cache.access plain addr in
        let hit' = Cache.access_hinted hinted hints i addr in
        if Random.State.int rng 8 = 0 then begin
          let k = Random.State.int rng 4 in
          Cache.bump_hits plain k;
          Cache.bump_hits hinted k
        end;
        if hit <> hit' then
          QCheck.Test.fail_reportf "step %d, address %d: access says %b, hinted %b"
            step addr hit hit';
        List.iter2
          (fun (name, v) (_, v') ->
            if v <> v' then
              QCheck.Test.fail_reportf
                "step %d, address %d: %s is %d after access, %d after the \
                 hinted lookup"
                step addr name v v')
          (cache_fields plain) (cache_fields hinted)
      done;
      true)

(* --- classic mode ------------------------------------------------------- *)

let test_classic_mode_traps () =
  let w = Bs_workloads.Registry.find "bitcount" in
  let c = Bitspec.Experiment.compile_workload Bitspec.Driver.bitspec_config w in
  (* running a squeezed binary with the slice extension disabled traps *)
  let r =
    Bs_sim.Machine.run
      ~config:{ Bs_sim.Machine.mode = Isa.Classic; fuel = 10_000_000;
                fault = None; power = None; engine = Bs_sim.Machine.Jit }
      c.Bitspec.Driver.program
      (Bs_interp.Memimage.create c.Bitspec.Driver.ir)
      ~entry:w.Bs_workloads.Workload.entry ~args:[ 10L ]
  in
  Alcotest.(check string) "classic-mode slice trap"
    (Bs_support.Outcome.to_string
       (Bs_support.Outcome.Trapped Bs_support.Outcome.Classic_mode_slice))
    (Bs_support.Outcome.to_string r.Bs_sim.Machine.outcome)

(* --- DTS model ---------------------------------------------------------- *)

let test_dts_solver () =
  (* no slack -> nominal voltage -> factor ~1 *)
  let f1 = Bs_energy.Dts.energy_factor 1.0 in
  Alcotest.(check bool) "no slack ~ 1" true (f1 > 0.95 && f1 <= 1.0001);
  (* more slack -> lower energy *)
  let f2 = Bs_energy.Dts.energy_factor 0.8 in
  let f3 = Bs_energy.Dts.energy_factor 0.5 in
  Alcotest.(check bool) "monotone" true (f3 < f2 && f2 < f1);
  Alcotest.(check bool) "bounded below" true (f3 > 0.1)

let prop_dts_monotone =
  QCheck.Test.make ~name:"DTS energy factor monotone in slack" ~count:100
    QCheck.(pair (float_range 0.3 1.0) (float_range 0.3 1.0))
    (fun (a, b) ->
      let lo = min a b and hi = max a b in
      Bs_energy.Dts.energy_factor lo <= Bs_energy.Dts.energy_factor hi +. 1e-9)

let test_thumb_cost_model () =
  (* 2-address penalty and immediate limits *)
  Alcotest.(check int) "same-dest alu" 1
    (Bs_backend.Thumb.cost (ALU (OpAdd, 1, 1, Reg 2)));
  Alcotest.(check int) "3-address alu" 2
    (Bs_backend.Thumb.cost (ALU (OpAdd, 1, 2, Reg 3)));
  Alcotest.(check int) "big immediate" 4
    (Bs_backend.Thumb.cost (ALU (OpAdd, 1, 2, Imm 4096)));
  Alcotest.(check int) "high register" 3
    (Bs_backend.Thumb.cost (MOV (11, 12)));
  Alcotest.(check int) "cset" 3 (Bs_backend.Thumb.cost (CSET (CEq, 1)))

let suite =
  [ Alcotest.test_case "roundtrip samples" `Quick test_roundtrip_samples;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    Alcotest.test_case "cache basics" `Quick test_cache_basics;
    Alcotest.test_case "cache LRU" `Quick test_cache_lru;
    Alcotest.test_case "cache reset" `Quick test_cache_reset;
    QCheck_alcotest.to_alcotest prop_hinted_lookup;
    Alcotest.test_case "classic mode traps on slices" `Quick
      test_classic_mode_traps;
    Alcotest.test_case "DTS voltage solver" `Quick test_dts_solver;
    QCheck_alcotest.to_alcotest prop_dts_monotone;
    Alcotest.test_case "thumb cost model" `Quick test_thumb_cost_model ]
