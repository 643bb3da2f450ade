open Bs_interp
open Bs_sim
open Bitspec

(* Differential tests of the whole back-end + machine model: for each
   program and input, the machine result must equal the reference
   interpreter's, on both architectures, with and without squeezing. *)


let machine_result ?setup c ~entry ~args =
  let r = Driver.run_machine ?setup c ~entry ~args in
  r.Machine.r0

let check_program ?(setup : (Memimage.t -> unit) option) ~name src ~entry
    ~train ~tests () =
  let base =
    Driver.compile ~config:Driver.baseline_config ~source:src
      ~train:[ (entry, train) ] ()
  in
  let setup_gen = Option.map (fun s _m -> s) setup in
  let bspec =
    Driver.compile ~config:Driver.bitspec_config ~source:src ?setup:setup_gen
      ~train:[ (entry, train) ] ()
  in
  List.iter
    (fun args ->
      let expect =
        match
          (fst (Interp.run_fresh ?setup base.Driver.ir ~entry ~args)).Interp.ret
        with
        | Some v -> Int64.logand v 0xFFFFFFFFL
        | None -> 0L
      in
      let got_base = machine_result ?setup base ~entry ~args in
      let got_spec = machine_result ?setup bspec ~entry ~args in
      let tag a =
        Printf.sprintf "%s(%s)" name
          (String.concat "," (List.map Int64.to_string a))
      in
      Alcotest.(check int64) (tag args ^ " baseline") expect got_base;
      Alcotest.(check int64) (tag args ^ " bitspec") expect got_spec)
    tests;
  (base, bspec)

let test_minimal () =
  ignore
    (check_program ~name:"const" "u32 f() { return 42; }" ~entry:"f"
       ~train:[] ~tests:[ [] ] ())

let test_arith_machine () =
  ignore
    (check_program ~name:"arith"
       "u32 f(u32 a, u32 b) { return (a + b) * 3 - a / (b + 1) + (a % 7); }"
       ~entry:"f" ~train:[ 100L; 9L ]
       ~tests:[ [ 0L; 0L ]; [ 100L; 9L ]; [ 123456L; 789L ]; [ 0xFFFFFFFFL; 2L ] ]
       ())

let test_signed_machine () =
  ignore
    (check_program ~name:"signed"
       "i32 f(i32 a, i32 b) { if (a < b) return a / b; return (a - 2 * b) >> 2; }"
       ~entry:"f" ~train:[ 10L; 3L ]
       ~tests:[ [ 10L; 3L ]; [ 0xFFFFFFF6L; 3L ]; [ 5L; 0xFFFFFFFEL ] ]
       ())

let test_loop_machine () =
  ignore
    (check_program ~name:"loop"
       "u32 f(u32 n) { u32 s = 0; for (u32 i = 0; i < n; i += 1) s += i * i; return s; }"
       ~entry:"f" ~train:[ 20L ]
       ~tests:[ [ 0L ]; [ 1L ]; [ 20L ]; [ 300L ] ] ())

let test_memory_machine () =
  ignore
    (check_program ~name:"memory"
       "u8 buf[128];\n\
        u16 half[32];\n\
        u32 f(u32 n) {\n\
        for (u32 i = 0; i < n; i += 1) buf[i] = (u8)(i * 3 + 1);\n\
        for (u32 i = 0; i < n / 4; i += 1) half[i] = (u16)(i * 1000);\n\
        u32 s = 0;\n\
        for (u32 i = 0; i < n; i += 1) s += buf[i];\n\
        for (u32 i = 0; i < n / 4; i += 1) s += half[i];\n\
        return s; }"
       ~entry:"f" ~train:[ 64L ]
       ~tests:[ [ 0L ]; [ 16L ]; [ 128L ] ] ())

let test_calls_machine () =
  ignore
    (check_program ~name:"calls"
       "u32 sq(u32 x) { return x * x; }\n\
        u32 tri(u32 a, u32 b, u32 c) { return sq(a) + sq(b) + sq(c); }\n\
        u32 f(u32 n) { u32 s = 0; for (u32 i = 0; i < n; i += 1) s += tri(i, i+1, i+2); return s; }"
       ~entry:"f" ~train:[ 10L ]
       ~tests:[ [ 0L ]; [ 10L ]; [ 50L ] ] ())

let test_recursion_machine () =
  ignore
    (check_program ~name:"recursion"
       "u32 fib(u32 n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }\n\
        u32 f(u32 n) { return fib(n); }"
       ~entry:"f" ~train:[ 10L ]
       ~tests:[ [ 0L ]; [ 1L ]; [ 15L ] ] ())

let test_misspec_machine () =
  (* The do-while example: machine must misspeculate past 255 and still
     compute the right answer via skeleton -> handler -> CFG_orig. *)
  let src =
    "u32 f(u32 lim) { u32 x = 0; do { x += 1; } while (x <= lim); return x; }"
  in
  let bspec =
    Driver.compile ~config:Driver.bitspec_config ~source:src
      ~train:[ ("f", [ 100L ]) ] ()
  in
  let r_small = Driver.run_machine bspec ~entry:"f" ~args:[ 50L ] in
  Alcotest.(check int64) "small" 51L r_small.Machine.r0;
  Alcotest.(check int) "no misspec small" 0 r_small.Machine.ctr.Counters.misspecs;
  let r_big = Driver.run_machine bspec ~entry:"f" ~args:[ 400L ] in
  Alcotest.(check int64) "big" 401L r_big.Machine.r0;
  Alcotest.(check bool) "misspeculated" true
    (r_big.Machine.ctr.Counters.misspecs > 0);
  (* delta must be positive and skeleton slots populated *)
  Alcotest.(check bool) "delta > 0" true (bspec.Driver.program.Bs_backend.Asm.delta > 0)

let test_slice_packing () =
  (* Many simultaneously-live squeezed values: bitspec must use 8-bit
     register accesses (Figure 11's signal). *)
  let src =
    "u8 data[64];\n\
     u32 f(u32 n) {\n\
     u32 s = 0;\n\
     for (u32 i = 0; i < n; i += 1) {\n\
     u32 a = data[i & 63]; u32 b = data[(i + 1) & 63];\n\
     u32 c = data[(i + 2) & 63]; u32 d = data[(i + 3) & 63];\n\
     s += (a & b) + (c ^ d);\n\
     }\n\
     return s & 0xFFFF; }"
  in
  let setup mem_m =
    fun (mem : Memimage.t) ->
      for i = 0 to 63 do
        Memimage.set_global mem mem_m ~name:"data" ~index:i
          (Int64.of_int (i * 3 land 0xFF))
      done
  in
  let bspec =
    Driver.compile ~config:Driver.bitspec_config ~source:src
      ~train:[ ("f", [ 16L ]) ] ()
  in
  let base =
    Driver.compile ~config:Driver.baseline_config ~source:src
      ~train:[ ("f", [ 16L ]) ] ()
  in
  let s_spec = setup bspec.Driver.ir and s_base = setup base.Driver.ir in
  List.iter
    (fun args ->
      let expect =
        match
          (fst (Interp.run_fresh ~setup:s_base base.Driver.ir ~entry:"f" ~args))
            .Interp.ret
        with
        | Some v -> Int64.logand v 0xFFFFFFFFL
        | None -> 0L
      in
      let rs = Driver.run_machine ~setup:s_spec bspec ~entry:"f" ~args in
      let rb = Driver.run_machine ~setup:s_base base ~entry:"f" ~args in
      Alcotest.(check int64) "bitspec result" expect rs.Machine.r0;
      Alcotest.(check int64) "baseline result" expect rb.Machine.r0;
      Alcotest.(check bool) "8-bit register traffic" true
        (rs.Machine.ctr.Counters.reg_read8 > 0);
      Alcotest.(check int) "baseline has no 8-bit traffic" 0
        rb.Machine.ctr.Counters.reg_read8)
    [ [ 64L ] ]

let test_encode_roundtrip_program () =
  (* every emitted instruction must survive encode/decode *)
  let src =
    "u8 t[16];\n\
     u32 f(u32 n) { u32 s = 0; for (u32 i = 0; i < n; i += 1) { t[i & 15] = (u8)i; s += t[i & 15]; } return s; }"
  in
  let c =
    Driver.compile ~config:Driver.bitspec_config ~source:src
      ~train:[ ("f", [ 10L ]) ] ()
  in
  Array.iter
    (fun insn ->
      let w = Bs_isa.Encode.encode insn in
      let insn' = Bs_isa.Encode.decode w in
      Alcotest.(check string) "roundtrip" (Bs_isa.Isa.to_string insn)
        (Bs_isa.Isa.to_string insn'))
    c.Driver.program.Bs_backend.Asm.code

(* Property: machine == interpreter over random inputs for a mixed kernel. *)
let prop_machine_equiv =
  let src =
    "u32 f(u32 a, u32 b) {\n\
     u32 s = 0;\n\
     for (u32 i = 0; i < (a & 127); i += 1) {\n\
     if ((i ^ b) % 3 == 0) s += i & 0xFF; else s = (s << 1) | (s >> 31);\n\
     }\n\
     return s; }"
  in
  (* compiled on the first trial, not when the module loads: a compile
     that fails fails this test alone *)
  let builds =
    lazy
      (let compile config =
         Driver.compile ~config ~source:src ~train:[ ("f", [ 40L; 7L ]) ] ()
       in
       (compile Driver.baseline_config, compile Driver.bitspec_config))
  in
  QCheck.Test.make ~name:"machine == interpreter" ~count:100
    QCheck.(pair (int_bound 500) (int_bound 1000))
    (fun (a, b) ->
      let base, bspec = Lazy.force builds in
      let args = [ Int64.of_int a; Int64.of_int b ] in
      let expect =
        match
          (fst (Interp.run_fresh base.Driver.ir ~entry:"f" ~args)).Interp.ret
        with
        | Some v -> Int64.logand v 0xFFFFFFFFL
        | None -> 0L
      in
      machine_result base ~entry:"f" ~args = expect
      && machine_result bspec ~entry:"f" ~args = expect)

(* Property: the allocator's slice occupancy answers every clash probe
   as an ordered map of the claimed ranges does, over rounds of
   probe-then-claim (the only way the allocator claims).  The model keys
   each range by its start; among disjoint ranges only the one with the
   greatest start below a probe's end can reach into it. *)
module Occ = Bs_backend.Regalloc.Occ
module Occ_model = Map.Make (Int)

let model_clashes m (s, e) =
  match Occ_model.find_last_opt (fun k -> k < e) m with
  | Some (_, e0) -> e0 > s
  | None -> false

(* an interval's ranges: sorted, disjoint and non-empty, in [0, 70) *)
let gen_ranges =
  QCheck.Gen.(
    list_size (int_range 1 4) (pair (int_bound 63) (int_range 1 6))
    >|= fun cuts ->
    let rec build = function
      | s :: (s' :: _ as rest) ->
          (s, Int.min (s + List.assoc s cuts) s') :: build rest
      | [ s ] -> [ (s, s + List.assoc s cuts) ]
      | [] -> []
    in
    build (List.sort_uniq Int.compare (List.map fst cuts)))

let prop_occupancy_matches_map =
  QCheck.Test.make ~name:"slice occupancy answers probes like a map"
    ~count:300
    QCheck.(
      make
        ~print:Print.(list (list (pair int int)))
        Gen.(list_size (int_range 1 40) gen_ranges))
    (fun intervals ->
      let o = Occ.create () and m = ref Occ_model.empty in
      List.for_all
        (fun ranges ->
          let answers =
            List.map
              (fun (s, e) -> (Occ.clashes o s e, model_clashes !m (s, e)))
              ranges
          in
          if List.for_all (fun (a, b) -> not (a || b)) answers then begin
            Occ.claim o ranges;
            m := List.fold_left (fun m (s, e) -> Occ_model.add s e m) !m ranges
          end;
          List.for_all (fun (a, b) -> a = b) answers)
        intervals)

let suite =
  [ Alcotest.test_case "minimal" `Quick test_minimal;
    Alcotest.test_case "arithmetic on machine" `Quick test_arith_machine;
    Alcotest.test_case "signed ops on machine" `Quick test_signed_machine;
    Alcotest.test_case "loops on machine" `Quick test_loop_machine;
    Alcotest.test_case "memory widths on machine" `Quick test_memory_machine;
    Alcotest.test_case "calls on machine" `Quick test_calls_machine;
    Alcotest.test_case "recursion on machine" `Quick test_recursion_machine;
    Alcotest.test_case "misspeculation via Δ skeleton" `Quick test_misspec_machine;
    Alcotest.test_case "slice packing (Fig 11 signal)" `Quick test_slice_packing;
    Alcotest.test_case "binary encode/decode roundtrip" `Quick test_encode_roundtrip_program;
    QCheck_alcotest.to_alcotest prop_machine_equiv;
    QCheck_alcotest.to_alcotest prop_occupancy_matches_map ]
