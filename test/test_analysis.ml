open Bs_ir
open Bs_frontend
open Bs_interp
open Bs_analysis

(* Tests for the bitwidth analyses behind Figure 1: the profiler's
   statistics, demanded-bits, and basic-block coercion. *)

let profile_of src ~entry ~args =
  let m = Lower.compile src in
  let profile = Profile.create () in
  let opts = { Interp.default_opts with profile = Some profile } in
  ignore (Interp.run_fresh ~opts m ~entry ~args);
  (m, profile)

let test_profile_stats () =
  let m, p =
    profile_of
      "u32 f(u32 n) { u32 s = 0; for (u32 i = 0; i < n; i += 1) s += i; return s; }"
      ~entry:"f" ~args:[ 10L ]
  in
  let f = List.hd m.Ir.funcs in
  (* find the add defining s (+= i): its max value is 45 -> 6 bits *)
  let adds =
    List.concat_map
      (fun (b : Ir.block) ->
        List.filter
          (fun (i : Ir.instr) ->
            match i.Ir.op with Ir.Bin (Ir.Add, _, _) -> true | _ -> false)
          b.Ir.instrs)
      f.Ir.blocks
  in
  Alcotest.(check bool) "adds profiled" true
    (List.for_all
       (fun (i : Ir.instr) ->
         Profile.stats p ~func:"f" ~iid:i.Ir.iid <> None)
       adds);
  List.iter
    (fun (i : Ir.instr) ->
      match Profile.stats p ~func:"f" ~iid:i.Ir.iid with
      | Some s ->
          Alcotest.(check bool) "max sane" true (s.Profile.s_max <= 6);
          Alcotest.(check bool) "min <= max" true (s.Profile.s_min <= s.Profile.s_max);
          Alcotest.(check bool) "count > 0" true (s.Profile.s_count > 0)
      | None -> ())
    adds

let test_heuristic_targets () =
  let _, p =
    profile_of
      "u32 f(u32 n) { u32 x = 1; for (u32 i = 0; i < n; i += 1) x = x * 2; return x; }"
      ~entry:"f" ~args:[ 12L ]
  in
  (* x takes values 2..4096: MIN class 8, MAX class 16 *)
  let found = ref false in
  Profile.iter_vars p (fun ~func ~iid (s : Profile.var_stats) ->
      if func = "f" && s.Profile.s_max >= 13 then begin
        found := true;
        let t h = Option.get (Profile.target p h ~func ~iid) in
        Alcotest.(check int) "MAX class" 16 (t Profile.Hmax);
        Alcotest.(check int) "MIN class" 8 (t Profile.Hmin);
        Alcotest.(check bool) "AVG between" true
          (t Profile.Havg >= t Profile.Hmin && t Profile.Havg <= t Profile.Hmax)
      end);
  Alcotest.(check bool) "found the doubling variable" true !found

let test_distributions_sum () =
  let _, p =
    profile_of
      "u8 buf[64];\n\
       u32 f(u32 n) { u32 s = 0; for (u32 i = 0; i < n; i += 1) { buf[i & 63] = (u8)i; s += buf[i & 63]; } return s; }"
      ~entry:"f" ~args:[ 100L ]
  in
  let close_to_one a =
    let s = Array.fold_left ( +. ) 0.0 a in
    abs_float (s -. 1.0) < 1e-9
  in
  Alcotest.(check bool) "required sums to 1" true
    (close_to_one (Profile.required_distribution p));
  Alcotest.(check bool) "programmer sums to 1" true
    (close_to_one (Profile.programmer_distribution p));
  List.iter
    (fun h ->
      Alcotest.(check bool)
        (Profile.heuristic_name h ^ " sums to 1")
        true
        (close_to_one (Profile.heuristic_distribution p h)))
    [ Profile.Hmax; Profile.Havg; Profile.Hmin ]

let test_required_le_programmer () =
  (* the share of dynamic instructions classified <= 8 bits can only grow
     when moving from programmer width to required width (Fig 1a vs 1b) *)
  let _, p =
    profile_of
      "u32 f(u32 n) { u32 s = 0; for (u32 i = 0; i < n; i += 1) s = (s + i) & 63; return s; }"
      ~entry:"f" ~args:[ 50L ]
  in
  let req = Profile.required_distribution p in
  let prog = Profile.programmer_distribution p in
  Alcotest.(check bool) "more 8-bit under required" true (req.(0) >= prog.(0))

let test_demanded_bits () =
  (* the masked value demands only its low 4 bits; the analysis must see
     through the add chain *)
  let m =
    Lower.compile
      "u8 out[4];\nu32 f(u32 x) { u32 y = x + 123; out[0] = (u8)(y & 15); return 0; }"
  in
  let f = Option.get (Ir.find_func m "f") in
  let db = Demanded_bits.compute f in
  let add =
    List.find_map
      (fun (b : Ir.block) ->
        List.find_map
          (fun (i : Ir.instr) ->
            match i.Ir.op with
            | Ir.Bin (Ir.Add, _, Ir.Const c) when c.Ir.cval = 123L -> Some i
            | _ -> None)
          b.Ir.instrs)
      f.Ir.blocks
  in
  (match add with
  | Some i ->
      let sel = Demanded_bits.selection db f ~iid:i.Ir.iid in
      Alcotest.(check int) "narrowed to 8-bit class" 8 sel
  | None -> Alcotest.fail "add not found");
  (* a returned value demands everything *)
  let m2 = Lower.compile "u32 f(u32 x) { return x + 1; }" in
  let f2 = Option.get (Ir.find_func m2 "f") in
  let db2 = Demanded_bits.compute f2 in
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun (i : Ir.instr) ->
          match i.Ir.op with
          | Ir.Bin (Ir.Add, _, _) ->
              Alcotest.(check int) "full width demanded" 32
                (Demanded_bits.selection db2 f2 ~iid:i.Ir.iid)
          | _ -> ())
        b.Ir.instrs)
    f2.Ir.blocks

let test_demanded_bits_shifts () =
  (* (x << 8) & 0xFF00 stored as u16: x demands its low byte only *)
  let m =
    Lower.compile
      "u16 out[2];\nu32 f(u32 x) { out[0] = (u16)((x << 8) & 0xFF00); return 0; }"
  in
  let f = Option.get (Ir.find_func m "f") in
  let db = Demanded_bits.compute f in
  (* the parameter's demand must not exceed 8 bits *)
  let p0 = List.hd f.Ir.param_instrs in
  match Hashtbl.find_opt db p0.Ir.iid with
  | Some mask ->
      Alcotest.(check bool) "param demands <= 8 bits" true
        (Bs_ir.Width.required_bits mask <= 8)
  | None -> Alcotest.fail "parameter has no demand"

let test_block_coerce_worst_case () =
  (* one wide variable in the block drags every narrow one with it
     (the paper's susan-corners observation, Fig 1d) *)
  let src =
    "u32 f(u32 n) {\n\
     u32 s = 0;\n\
     u32 wide = 0;\n\
     for (u32 i = 0; i < n; i += 1) {\n\
     u32 narrow = i & 7;\n\
     wide = wide + 100000;\n\
     s += narrow;\n\
     }\n\
     return s + (wide >> 16); }"
  in
  let m, p = profile_of src ~entry:"f" ~args:[ 30L ] in
  let sel = Block_coerce.selection m p in
  let req = Profile.required_distribution p in
  let coerced = Profile.selection_distribution p ~select:sel in
  (* coercion must lose 8-bit share relative to required bits *)
  Alcotest.(check bool)
    (Printf.sprintf "coerced 8-bit share (%.2f) < required (%.2f)" coerced.(0)
       req.(0))
    true
    (coerced.(0) < req.(0))

(* Property: recording through slots gives exactly the statistics,
   targets and distributions a model computes from each variable's list
   of values.  Each variable is recorded by two slots, as by two training
   runs: every slot is built before any value is recorded, the first
   records the first half of the values, the second the rest.  A
   variable with no values must stay unprofiled. *)
let naive_required_bits v =
  let rec len n v =
    if v = 0L then n else len (n + 1) (Int64.shift_right_logical v 1)
  in
  if Int64.compare v 0L < 0 then 64 else Int.max 1 (len 0 v)

(* the index of a bit count's class among [Profile.classes] *)
let class_of bits =
  if bits <= 8 then 0 else if bits <= 16 then 1 else if bits <= 32 then 2
  else 3

let gen_profiled_vars =
  QCheck.Gen.(
    list_size (int_range 1 12)
      (pair (oneofl [ 1; 8; 16; 32; 64 ])
         (list_size (int_bound 6)
            (frequency
               [ (3, map Int64.of_int (int_bound 300));
                 (2, map Int64.of_int (int_bound 70_000));
                 (2, int64);
                 (1, oneofl [ 0L; -1L; Int64.max_int; 0x4000_0000_0000_0000L ])
               ]))))

let prop_profile_matches_model =
  QCheck.Test.make
    ~name:"profile stats, targets and distributions match a model" ~count:300
    QCheck.(make ~print:Print.(list (pair int (list int64))) gen_profiled_vars)
    (fun vars ->
      let vars = List.mapi (fun iid (w, vs) -> (iid, w, vs)) vars in
      let func iid = if iid mod 2 = 0 then "f" else "g" in
      let p = Profile.create () in
      let slots () =
        let cf = Profile.cursor p ~func:"f" in
        let cg = Profile.cursor p ~func:"g" in
        List.map
          (fun (iid, width, _) ->
            Profile.slot (if func iid = "f" then cf else cg) ~iid ~width)
          vars
      in
      let first = slots () and second = slots () in
      List.iter2
        (fun (_, _, vs) (s1, s2) ->
          let half = (List.length vs + 1) / 2 in
          List.iteri
            (fun k v -> Profile.record (if k < half then s1 else s2) v)
            vs)
        vars (List.combine first second);
      (* the model *)
      let req = Array.make 4 0 and prog = Array.make 4 0 in
      let model =
        List.map
          (fun (iid, w, vs) ->
            let bits = List.map naive_required_bits vs in
            List.iter (fun b -> req.(class_of b) <- req.(class_of b) + 1) bits;
            prog.(class_of w) <- prog.(class_of w) + List.length vs;
            let stats =
              if vs = [] then None
              else
                Some
                  ( List.fold_left Int.min max_int bits,
                    List.fold_left Int.max 0 bits,
                    List.fold_left ( + ) 0 bits,
                    List.length bits )
            in
            (iid, stats))
          vars
      in
      let fractions h =
        let total = Array.fold_left ( + ) 0 h in
        if total = 0 then [||]
        else Array.map (fun n -> float_of_int n /. float_of_int total) h
      in
      let target_model h (mn, mx, sum, count) =
        Profile.classes.(class_of
                           (match h with
                           | Profile.Hmax -> mx
                           | Profile.Hmin -> mn
                           | Profile.Havg -> (sum + count - 1) / count))
      in
      let select ~func:_ ~iid = if iid mod 3 = 0 then 8 else 32 in
      let dist_model pick =
        let h = Array.make 4 0 in
        List.iter
          (fun (iid, st) ->
            match st with
            | Some ((_, _, _, count) as st) ->
                let c = class_of (pick iid st) in
                h.(c) <- h.(c) + count
            | None -> ())
          model;
        fractions h
      in
      let heuristics = [ Profile.Hmax; Profile.Havg; Profile.Hmin ] in
      List.for_all
        (fun (iid, st) ->
          (match (Profile.stats p ~func:(func iid) ~iid, st) with
          | None, None -> true
          | Some g, Some (mn, mx, sum, count) ->
              g.Profile.s_min = mn && g.Profile.s_max = mx
              && g.Profile.s_sum = sum && g.Profile.s_count = count
          | _ -> false)
          && List.for_all
               (fun h ->
                 Profile.target p h ~func:(func iid) ~iid
                 = Option.map (target_model h) st)
               heuristics)
        model
      && Profile.required_distribution p = fractions req
      && Profile.programmer_distribution p = fractions prog
      && List.for_all
           (fun h ->
             Profile.heuristic_distribution p h
             = dist_model (fun _ st -> target_model h st))
           heuristics
      && Profile.selection_distribution p ~select
         = dist_model (fun iid _ -> select ~func:(func iid) ~iid))

let suite =
  [ Alcotest.test_case "profiler statistics" `Quick test_profile_stats;
    Alcotest.test_case "MAX/AVG/MIN targets" `Quick test_heuristic_targets;
    Alcotest.test_case "distributions sum to 1" `Quick test_distributions_sum;
    Alcotest.test_case "required >= programmer at 8 bits" `Quick
      test_required_le_programmer;
    Alcotest.test_case "demanded bits narrows masked chains" `Quick
      test_demanded_bits;
    Alcotest.test_case "demanded bits through shifts" `Quick
      test_demanded_bits_shifts;
    Alcotest.test_case "block coercion worst case (Fig 1d)" `Quick
      test_block_coerce_worst_case;
    QCheck_alcotest.to_alcotest prop_profile_matches_model ]
