(* The table of paper cells, checked as data: nothing here compiles or
   simulates. *)

open Bitspec

let key (c : Paper.cell) = (c.kernel, Driver.config_tag c.config, c.source)

let section name =
  List.find (fun (s : Paper.section) -> s.name = name) Paper.sections

(* Per kernel: baseline, BITSPEC under MAX/AVG/MIN, no speculation,
   expander off for both architectures, MIN with CFG_orig first, the
   alternate profile and Thumb (10); RQ3's two ablations on its four
   kernels (8); RQ7's narrow source under both architectures on its two
   (4). *)
let test_cells () =
  let keys = List.map key Paper.cells in
  Alcotest.(check int) "152 cells" 152 (List.length keys);
  Alcotest.(check int) "all distinct" 152
    (List.length (List.sort_uniq compare keys));
  let extra name k =
    if List.mem k (section name).kernels then 2 else 0
  in
  List.iter
    (fun k ->
      Alcotest.(check int) (k ^ "'s cells")
        (10 + extra "rq3" k + extra "rq7" k)
        (List.length
           (List.filter (fun (c : Paper.cell) -> c.kernel = k) Paper.cells)))
    Bs_workloads.Registry.names;
  Alcotest.(check int) "RQ3 kernels" 4 (List.length (section "rq3").kernels);
  Alcotest.(check int) "RQ7 kernels" 2 (List.length (section "rq7").kernels)

let test_sections () =
  let names = List.map (fun (s : Paper.section) -> s.name) Paper.sections in
  Alcotest.(check int) "unique names" (List.length names)
    (List.length (List.sort_uniq compare names));
  let keys = List.map key Paper.cells in
  List.iter
    (fun (s : Paper.section) ->
      List.iter
        (fun k ->
          List.iter
            (fun c ->
              if not (List.mem (key c) keys) then
                Alcotest.failf "%s: %s is not in Paper.cells" s.name
                  (Paper.cell_name c))
            (s.cells k))
        s.kernels)
    Paper.sections

let suite =
  [ Alcotest.test_case "152 distinct cells, 10 per kernel" `Quick test_cells;
    Alcotest.test_case "every section's cells are in the table" `Quick
      test_sections ]
