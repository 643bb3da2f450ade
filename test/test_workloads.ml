open Bs_workloads
open Bitspec

(* Every workload must produce the same checksum on:
   - the reference interpreter,
   - the BASELINE machine,
   - the BITSPEC machine (squeezed, speculative),
   - the Thumb machine,
   on its test input.  This pins the whole stack together. *)

let check_workload (w : Workload.t) () =
  let expect = Experiment.reference_checksum w in
  let base = Experiment.run Driver.baseline_config w in
  Alcotest.(check int64) (w.name ^ " baseline") expect base.Experiment.checksum;
  let bspec = Experiment.run Driver.bitspec_config w in
  Alcotest.(check int64) (w.name ^ " bitspec") expect bspec.Experiment.checksum;
  let thumb = Experiment.run Driver.thumb_config w in
  Alcotest.(check int64) (w.name ^ " thumb") expect thumb.Experiment.checksum;
  (* sanity on the counters the figures are built from *)
  Alcotest.(check bool) (w.name ^ " instrs > 0") true (base.Experiment.instrs > 0);
  Alcotest.(check bool)
    (w.name ^ " thumb executes more instructions (Fig 18)")
    true
    (thumb.Experiment.instrs >= base.Experiment.instrs)

let check_heuristics (w : Workload.t) () =
  (* results must be invariant across selection heuristics *)
  let expect = Experiment.reference_checksum w in
  List.iter
    (fun h ->
      let cfg = { Driver.bitspec_config with heuristic = h } in
      let m = Experiment.run cfg w in
      Alcotest.(check int64)
        (w.name ^ " " ^ Bs_interp.Profile.heuristic_name h)
        expect m.Experiment.checksum)
    [ Bs_interp.Profile.Hmax; Bs_interp.Profile.Havg; Bs_interp.Profile.Hmin ]

(* Names are case-sensitive; the error lists the known names and
   suggests the one that matches ignoring case. *)
let test_unknown_name () =
  let message name =
    match Registry.find name with
    | _ -> Alcotest.failf "%s resolved" name
    | exception Invalid_argument m -> m
  in
  let m = message "crc32" in
  Alcotest.(check bool) "names the workload" true
    (Str_exists.contains m "unknown workload crc32");
  Alcotest.(check bool) "suggests CRC32" true
    (Str_exists.contains m "(did you mean CRC32?)");
  List.iter
    (fun n ->
      Alcotest.(check bool) ("lists " ^ n) true (Str_exists.contains m n))
    Registry.names;
  Alcotest.(check bool) "no suggestion without a match" false
    (Str_exists.contains (message "nope") "did you mean")

let suite =
  Alcotest.test_case "unknown names list the known ones" `Quick
    test_unknown_name
  :: List.map
    (fun (w : Workload.t) ->
      Alcotest.test_case w.name `Slow (check_workload w))
    Registry.all
  @ List.map
      (fun (w : Workload.t) ->
        Alcotest.test_case (w.name ^ " heuristics") `Slow (check_heuristics w))
      [ Registry.find "CRC32"; Registry.find "stringsearch";
        Registry.find "patricia"; Registry.find "susan-edges" ]
