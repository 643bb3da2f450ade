open Bs_workloads
open Bs_energy
open Experiment

(* The evaluation grid of §4, declared once: each figure's cells and a
   pure row function over their metrics.  Every measured cell is checked
   against the reference interpreter before any row uses it. *)

type source = Train | Alt | Narrow
type cell = { kernel : string; config : Driver.config; source : source }

(* The profile label a source compiles under: [Train] takes the compile
   cache's default "train" label.  perfbench's first pass uses the same
   labels, so it compiles exactly what bench/main.exe compiles. *)
let label = function
  | Train -> None
  | Alt -> Some "altprof"
  | Narrow -> Some "narrow"

let cell_name c =
  c.kernel ^ "/" ^ Driver.config_tag c.config
  ^ match label c.source with Some l -> "#" ^ l | None -> ""

let workload c =
  let w = Registry.find c.kernel in
  match (c.source, w.Workload.narrow_source) with
  | Narrow, Some narrow -> { w with Workload.source = narrow }
  | Narrow, None -> invalid_arg (c.kernel ^ " has no narrow source")
  | (Train | Alt), _ -> w

let measured : (string, metrics) Bs_exec.Memo.t = Bs_exec.Memo.create ()

let measure c =
  Bs_exec.Memo.find_or_add measured (cell_name c) (fun () ->
      let w = workload c in
      let profile_input =
        match c.source with Alt -> Some w.Workload.alt | Train | Narrow -> None
      in
      let m = run ?profile_input ?profile_tag:(label c.source) c.config w in
      let want = reference_checksum w in
      if m.checksum <> want then
        failwith
          (Printf.sprintf
             "cell %s: checksum %Ld, the reference interpreter's %Ld"
             (cell_name c) m.checksum want);
      m)

type value = Ratio of float | Count of int

type section = {
  name : string;
  title : string;
  columns : string list;
  kernels : string list;
  cells : string -> cell list;
  row : metrics array -> value list;
  footer : value list list -> string;
}

(* --- configurations and cells ------------------------------------------ *)

let bitspec = Driver.bitspec_config
let heuristic h = { bitspec with Driver.heuristic = h }
let base_noexp = { Driver.baseline_config with expander = Expander.disabled }
let spec_noexp = { bitspec with expander = Expander.disabled }
let nospec = { bitspec with speculate = false }
let no_ce = { bitspec with compare_elim = false }
let no_bm = { bitspec with bitmask_elide = false }
let min_cfg = heuristic Bs_interp.Profile.Hmin
let min_inv = { min_cfg with orig_first = true }
let heuristics = Bs_interp.Profile.[ Hmax; Havg; Hmin ]

let cell ?(source = Train) config kernel = { kernel; config; source }
let baseline = cell Driver.baseline_config
let spec = cell bitspec

(* --- row functions ------------------------------------------------------- *)

let ratio v base = Ratio (rel v base)
let ratio_i v base = ratio (float_of_int v) (float_of_int base)
let energy m b = ratio m.total_energy b.total_energy

let first_column rows =
  List.map
    (function Ratio x :: _ -> x | Count n :: _ -> float_of_int n | [] -> 0.0)
    rows

(* [cells] lists a row's cells, each a function of the kernel *)
let section ?(footer = fun _ -> "") ?(kernels = Registry.names) name title
    columns cells row =
  { name; title; columns; kernels; row; footer;
    cells = (fun k -> List.map (fun c -> c k) cells) }

let fig8 =
  section "fig8" "Figure 8: BITSPEC relative to BASELINE"
    [ "energy"; "dyn instrs"; "EPI" ] [ baseline; spec ]
    (fun m ->
      [ energy m.(1) m.(0); ratio_i m.(1).instrs m.(0).instrs;
        ratio m.(1).epi m.(0).epi ])
    ~footer:(fun rows ->
      let es = first_column rows in
      Printf.sprintf "%-18s %12.3f   (geometric mean; paper reports 0.901)\n"
        "MEAN energy"
        (exp
           (List.fold_left (fun acc e -> acc +. log e) 0.0 es
           /. float_of_int (List.length es))))

let fig9 =
  section "fig9"
    "Figure 9: per-component energy relative to the BASELINE component"
    [ "ALU"; "regfile"; "D$"; "I$"; "pipeline" ] [ baseline; spec ]
    (fun m ->
      let b = m.(0).energy and s = m.(1).energy in
      [ ratio s.Energy.alu b.Energy.alu;
        ratio s.Energy.regfile b.Energy.regfile;
        ratio s.Energy.dcache b.Energy.dcache;
        ratio s.Energy.icache b.Energy.icache;
        ratio s.Energy.pipeline b.Energy.pipeline ])

let fig10 =
  section "fig10"
    "Figure 10: spill loads / stores / copies (normalised to their BASELINE \
     sum)"
    [ "loads"; "stores"; "copies"; "total" ] [ baseline; spec ]
    (fun m ->
      let traffic r = r.spill_loads + r.spill_stores + r.copies in
      let base_sum = float_of_int (traffic m.(0)) in
      let base_sum = if base_sum = 0.0 then 1.0 else base_sum in
      let f x = Ratio (float_of_int x /. base_sum) in
      let s = m.(1) in
      [ f s.spill_loads; f s.spill_stores; f s.copies; f (traffic s) ])

let fig11 =
  section "fig11"
    "Figure 11: register accesses relative to BASELINE (all 32-bit there)"
    [ "32-bit"; "8-bit"; "total" ] [ baseline; spec ]
    (fun m ->
      let base = float_of_int m.(0).reg_accesses_32 and s = m.(1) in
      let f x = Ratio (float_of_int x /. base) in
      [ f s.reg_accesses_32; f s.reg_accesses_8;
        f (s.reg_accesses_32 + s.reg_accesses_8) ])

let fig12 =
  section "fig12"
    "Figure 12: energy without speculation vs BITSPEC (both vs BASELINE)"
    [ "no-spec"; "bitspec" ] [ baseline; cell nospec; spec ]
    (fun m -> [ energy m.(1) m.(0); energy m.(2) m.(0) ])

let rq3 =
  section "rq3"
    "RQ3: BITSPEC-specific optimisation ablations (energy vs BASELINE)"
    [ "full"; "-cmp-elim"; "-bitmask" ]
    [ baseline; spec; cell no_ce; cell no_bm ]
    (fun m -> [ energy m.(1) m.(0); energy m.(2) m.(0); energy m.(3) m.(0) ])
    ~kernels:[ "dijkstra"; "blowfish"; "rijndael"; "CRC32" ]

let fig13 =
  section "fig13"
    "Figure 13: expander disabled (relative to BASELINE with expander)"
    [ "base-noexp E"; "spec-noexp E"; "spec-noexp EPI" ]
    [ baseline; cell base_noexp; cell spec_noexp ]
    (fun m ->
      [ energy m.(1) m.(0); energy m.(2) m.(0); ratio m.(2).epi m.(0).epi ])

let fig14 =
  section "fig14" "Figure 14: energy per selection heuristic (vs BASELINE)"
    [ "MAX"; "AVG"; "MIN" ]
    (baseline :: List.map (fun h -> cell (heuristic h)) heuristics)
    (fun m -> [ energy m.(1) m.(0); energy m.(2) m.(0); energy m.(3) m.(0) ])

let table2 =
  section "table2" "Table 2: misspeculation counts per heuristic"
    [ "MAX"; "AVG"; "MIN" ]
    (List.map (fun h -> cell (heuristic h)) heuristics)
    (fun m -> Array.to_list (Array.map (fun r -> Count r.misspecs) m))

let rq5 =
  section "rq5"
    "RQ5: MIN-heuristic dynamic instructions vs BASELINE, with the default \
     allocator weights (handlers never entered) vs inverted (CFG_orig first)"
    [ "MIN default"; "MIN orig-1st"; "misspecs" ]
    [ baseline; cell min_cfg; cell min_inv ]
    (fun m ->
      [ ratio_i m.(1).instrs m.(0).instrs; ratio_i m.(2).instrs m.(0).instrs;
        Count m.(1).misspecs ])

let fig15 =
  section "fig15"
    "Figure 15: profiling on the alternate input (energy vs BASELINE)"
    [ "train-prof"; "alt-prof" ]
    [ baseline; spec; cell ~source:Alt bitspec ]
    (fun m -> [ energy m.(1) m.(0); energy m.(2) m.(0) ])

let rq7 =
  section "rq7"
    "RQ7: worst-case-width source vs hand-narrowed source (energy vs \
     narrow-source BASELINE)"
    [ "base-wide"; "spec-wide"; "spec-narrow" ]
    [ cell ~source:Narrow Driver.baseline_config; baseline; spec;
      cell ~source:Narrow bitspec ]
    (fun m -> [ energy m.(1) m.(0); energy m.(2) m.(0); energy m.(3) m.(0) ])
    ~kernels:[ "dijkstra"; "stringsearch" ]

let fig18 =
  section "fig18" "Figure 18: Thumb dynamic instructions relative to BASELINE"
    [ "thumb/base" ]
    [ baseline; cell Driver.thumb_config ]
    (fun m -> [ ratio_i m.(1).instrs m.(0).instrs ])
    ~footer:(fun rows ->
      let rs = first_column rows in
      Printf.sprintf "%-18s %12.3f   (paper: 1.258 average)\n" "MEAN"
        (List.fold_left ( +. ) 0.0 rs /. float_of_int (List.length rs)))

let sections =
  [ fig8; fig9; fig10; fig11; fig12; rq3; fig13; fig14; table2; rq5; fig15;
    rq7; fig18 ]

let cells =
  let seen = Hashtbl.create 256 in
  List.filter
    (fun c ->
      let key = cell_name c in
      if Hashtbl.mem seen key then false
      else (
        Hashtbl.add seen key ();
        true))
    (List.concat_map (fun s -> List.concat_map s.cells s.kernels) sections)
