open Bs_ir
open Bitspec
open Bs_workloads

(* The dominance queries and the liveness every compile leans on, checked
   against straightforward reference versions on real code: every function
   of the 14 workloads before the squeezer (the form BASELINE and BITSPEC
   share) and after a whole BASELINE and BITSPEC compile.

   The references are the textbook formulations: Cooper-Harvey-Kennedy
   over hash tables queried by walking the immediate-dominator chain, and
   round-robin liveness that refolds every block each round until nothing
   changes.  [Dom] answers a query from preorder intervals and [Liveness]
   walks each variable back from its uses; both must agree with the
   references on every block, and the verifier's Theorem 3.1 liveness
   (region definitions only) must equal the full liveness restricted to
   those variables. *)

module IntSet = Liveness.IntSet

module Ref = struct
  let idoms ~preds (f : Ir.func) =
    let order = Array.of_list (Ir.reverse_postorder f) in
    let index = Hashtbl.create 16 in
    Array.iteri (fun i bid -> Hashtbl.replace index bid i) order;
    let idom = Hashtbl.create 16 in
    (match f.blocks with
    | [] -> ()
    | e :: _ ->
        Hashtbl.replace idom e.Ir.bid e.Ir.bid;
        let rec intersect b1 b2 =
          if b1 = b2 then b1
          else if Hashtbl.find index b1 > Hashtbl.find index b2 then
            intersect (Hashtbl.find idom b1) b2
          else intersect b1 (Hashtbl.find idom b2)
        in
        let changed = ref true in
        while !changed do
          changed := false;
          Array.iter
            (fun bid ->
              if bid <> e.Ir.bid then
                let ps =
                  match Hashtbl.find_opt preds bid with Some l -> l | None -> []
                in
                match List.filter (Hashtbl.mem idom) ps with
                | [] -> ()
                | first :: rest ->
                    let d = List.fold_left intersect first rest in
                    if Hashtbl.find_opt idom bid <> Some d then begin
                      Hashtbl.replace idom bid d;
                      changed := true
                    end)
            order
        done);
    idom

  let dominates idom a b =
    let rec walk b =
      a = b
      ||
      match Hashtbl.find_opt idom b with
      | Some p when p <> b -> walk p
      | _ -> false
    in
    walk b

  let liveness ~preds (f : Ir.func) =
    let succs = Hashtbl.create 16 in
    List.iter (fun (b : Ir.block) -> Hashtbl.replace succs b.bid []) f.blocks;
    Hashtbl.iter
      (fun b ps ->
        List.iter
          (fun p ->
            let cur = try Hashtbl.find succs p with Not_found -> [] in
            if not (List.mem b cur) then Hashtbl.replace succs p (b :: cur))
          ps)
      preds;
    let live_in = Hashtbl.create 16 and live_out = Hashtbl.create 16 in
    List.iter
      (fun (b : Ir.block) ->
        Hashtbl.replace live_in b.bid IntSet.empty;
        Hashtbl.replace live_out b.bid IntSet.empty)
      f.blocks;
    let flow (b : Ir.block) out =
      List.fold_right
        (fun (i : Ir.instr) live ->
          let live = if Ir.has_result i then IntSet.remove i.iid live else live in
          if Ir.is_phi i then live
          else
            List.fold_left
              (fun acc -> function Ir.Var v -> IntSet.add v acc | Ir.Const _ -> acc)
              live (Ir.operands i))
        b.instrs out
    in
    let along p (s : Ir.block) =
      List.fold_left
        (fun (via, defs) (i : Ir.instr) ->
          match i.op with
          | Ir.Phi incoming ->
              ( (match List.assoc_opt p incoming with
                | Some (Ir.Var v) -> IntSet.add v via
                | _ -> via),
                IntSet.add i.iid defs )
          | _ -> (via, defs))
        (IntSet.empty, IntSet.empty) s.instrs
    in
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun (b : Ir.block) ->
          let out =
            List.fold_left
              (fun acc s ->
                let via, defs = along b.bid (Ir.block f s) in
                IntSet.union acc
                  (IntSet.union (IntSet.diff (Hashtbl.find live_in s) defs) via))
              IntSet.empty (Hashtbl.find succs b.bid)
          in
          let inn = flow b out in
          if
            not
              (IntSet.equal out (Hashtbl.find live_out b.bid)
              && IntSet.equal inn (Hashtbl.find live_in b.bid))
          then begin
            Hashtbl.replace live_out b.bid out;
            Hashtbl.replace live_in b.bid inn;
            changed := true
          end)
        (List.rev f.blocks)
    done;
    (live_in, live_out)
end

(* Every module the test covers: per workload, the pre-squeeze form and
   the final BASELINE and BITSPEC compiles. *)
let modules () =
  List.concat_map
    (fun (w : Workload.t) ->
      let pre = Bs_frontend.Lower.compile w.Workload.source in
      ignore (Expander.run pre Expander.default);
      ignore (Cfg_prep.run pre);
      let built config = (Experiment.compile_workload config w).Driver.ir in
      [ (w.Workload.name ^ " pre-squeeze", pre);
        (w.Workload.name ^ " baseline", built Driver.baseline_config);
        (w.Workload.name ^ " bitspec", built Driver.bitspec_config) ])
    Registry.all

let set = Alcotest.testable (fun ppf s ->
  Fmt.pf ppf "{%a}" Fmt.(list ~sep:comma int) (IntSet.elements s)) IntSet.equal

let test_equivalence () =
  let funcs = ref 0 and with_regions = ref 0 and pairs = ref 0 in
  List.iter
    (fun (name, (m : Ir.modul)) ->
      List.iter
        (fun (f : Ir.func) ->
          incr funcs;
          let where what = Printf.sprintf "%s %s: %s" name f.Ir.fname what in
          let bids = List.map (fun (b : Ir.block) -> b.Ir.bid) f.Ir.blocks in
          (* dominance, under the verifier's relation and the plain CFG's *)
          List.iter
            (fun (rel, preds) ->
              let dom = Dom.compute ~preds f and idom = Ref.idoms ~preds f in
              List.iter
                (fun b ->
                  if Dom.idom dom b <> Hashtbl.find_opt idom b then
                    Alcotest.fail (where (Printf.sprintf "%s idom of %d" rel b));
                  List.iter
                    (fun a ->
                      incr pairs;
                      if Dom.dominates dom a b <> Ref.dominates idom a b then
                        Alcotest.fail
                          (where (Printf.sprintf "%s: does %d dominate %d?" rel a b)))
                    bids)
                bids)
            [ ("SIR", Ir.preds_sir f); ("CFG", Ir.preds_map f) ];
          (* liveness under each relation the compiler uses *)
          List.iter
            (fun (rel, preds) ->
              let live = Liveness.compute ~preds f in
              let ref_in, ref_out = Ref.liveness ~preds f in
              List.iter
                (fun b ->
                  Alcotest.check set (where (Printf.sprintf "%s live-in %d" rel b))
                    (Hashtbl.find ref_in b) (Liveness.live_in live b);
                  Alcotest.check set (where (Printf.sprintf "%s live-out %d" rel b))
                    (Hashtbl.find ref_out b) (Liveness.live_out live b))
                bids)
            [ ("SIR", Ir.preds_sir f); ("CFG", Ir.preds_map f);
              ("SMIR", Ir.preds_smir f) ];
          (* Theorem 3.1's restriction to region definitions *)
          if f.Ir.regions <> [] then incr with_regions;
          let defs =
            List.fold_left
              (fun acc (r : Ir.region) ->
                List.fold_left
                  (fun acc bid ->
                    List.fold_left
                      (fun acc (i : Ir.instr) ->
                        if Ir.has_result i then IntSet.add i.Ir.iid acc else acc)
                      acc (Ir.block f bid).Ir.instrs)
                  acc r.Ir.rblocks)
              IntSet.empty f.Ir.regions
          in
          let full = Liveness.compute ~preds:(Ir.preds_sir f) f in
          let regional = Verifier.region_liveness f in
          List.iter
            (fun b ->
              Alcotest.check set (where (Printf.sprintf "region live-in %d" b))
                (IntSet.inter defs (Liveness.live_in full b))
                (Liveness.live_in regional b);
              Alcotest.check set (where (Printf.sprintf "region live-out %d" b))
                (IntSet.inter defs (Liveness.live_out full b))
                (Liveness.live_out regional b))
            bids)
        m.Ir.funcs)
    (modules ());
  (* the comparison covered real squeezed code, not only region-free
     functions *)
  Alcotest.(check bool) "functions with regions compared" true
    (!with_regions >= 14);
  Alcotest.(check bool) "dominance pairs compared" true (!pairs > 100_000);
  ignore !funcs

let suite =
  [ Alcotest.test_case "dominance and liveness match the references on every workload"
      `Slow test_equivalence ]
