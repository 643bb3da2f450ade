(* The reproduction's figures, pinned.

   bench/transcript.txt is the stdout of `bench/main.exe --jobs 1` over
   every section.  Here the Figure 8, Figure 9 and Table 2 sections are
   recomputed and must match it byte for byte; ci.sh compares every
   section at --jobs 4.  A change that moves a figure on purpose
   regenerates the transcript in the same commit:

     dune exec bench/main.exe -- --jobs 1 > bench/transcript.txt

   EXPERIMENTS.md's Figure 8 table quotes the transcript, and must
   agree with it cell for cell. *)

let pinned = [ "fig8"; "fig9"; "table2" ]

(* [(header, body)] per section: a section starts at its "=== title ==="
   line and runs to the next one, minus the blank lines that separate
   it from the next header. *)
let sections text =
  let rec trim = function "" :: rest -> trim rest | l -> l in
  let close cur acc =
    match cur with
    | None -> acc
    | Some (h, body) -> (h, String.concat "\n" (List.rev (trim body))) :: acc
  in
  let cur, acc =
    List.fold_left
      (fun (cur, acc) line ->
        if String.starts_with ~prefix:"=== " line then
          (Some (line, []), close cur acc)
        else
          match cur with
          | Some (h, body) -> (Some (h, line :: body), acc)
          | None -> (None, acc))
      (None, [])
      (String.split_on_char '\n' text)
  in
  List.rev (close cur acc)

let first_diff a b =
  let rec go n = function
    | x :: xs, y :: ys ->
        if x = y then go (n + 1) (xs, ys)
        else Printf.sprintf "line %d: %S vs %S" n x y
    | x :: _, [] -> Printf.sprintf "line %d: %S vs (end)" n x
    | [], y :: _ -> Printf.sprintf "line %d: (end) vs %S" n y
    | [], [] -> "identical"
  in
  go 1 (String.split_on_char '\n' a, String.split_on_char '\n' b)

(* [bench args] runs bench/main.exe: its stdout and exit status. *)
let bench args =
  let exe = "../bench/main.exe" in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let out = In_channel.input_all ic in
  (out, Unix.close_process_in ic)

let test_pinned_sections () =
  let expected =
    sections
      (In_channel.with_open_bin "../bench/transcript.txt" In_channel.input_all)
  in
  let out, status = bench ("--jobs" :: "1" :: pinned) in
  Alcotest.(check bool) "bench/main.exe exits 0" true (status = Unix.WEXITED 0);
  let got = sections out in
  Alcotest.(check int) "one section per name" (List.length pinned)
    (List.length got);
  List.iter
    (fun (h, body) ->
      match List.assoc_opt h expected with
      | None -> Alcotest.failf "%s is not in bench/transcript.txt" h
      | Some want ->
          if want <> body then
            Alcotest.failf "%s differs from bench/transcript.txt at %s" h
              (first_diff want body))
    got

(* A misspelt section or job count is refused before any work: a valid
   name beside it must not run either, or a typo in a timed subset would
   pass as a fast run. *)
let test_bad_arguments () =
  List.iter
    (fun args ->
      let out, status = bench args in
      let what = String.concat " " args in
      Alcotest.(check string) (what ^ ": nothing on stdout") "" out;
      Alcotest.(check bool) (what ^ ": exits 2") true (status = Unix.WEXITED 2))
    [ [ "fig88" ]; [ "fig8"; "fig88" ]; [ "--jobs"; "x"; "fig8" ] ]

(* EXPERIMENTS.md quotes the Figure 8 section as a Markdown table: its
   benchmark rows (energy, dynamic instructions, EPI) and its geomean
   must be the transcript's, row for row. *)
let words line = List.filter (( <> ) "") (String.split_on_char ' ' line)

let test_experiments_fig8 () =
  let read path = In_channel.with_open_bin path In_channel.input_all in
  let want_rows, want_mean =
    match
      List.assoc_opt "=== Figure 8: BITSPEC relative to BASELINE ==="
        (sections (read "../bench/transcript.txt"))
    with
    | None -> Alcotest.fail "bench/transcript.txt has no Figure 8 section"
    | Some body ->
        List.fold_left
          (fun (rows, mean) line ->
            match words line with
            | "benchmark" :: _ -> (rows, mean)
            | "MEAN" :: "energy" :: g :: _ -> (rows, g)
            | [ b; e; d; epi ] -> (rows @ [ (b, [ e; d; epi ]) ], mean)
            | _ -> Alcotest.failf "transcript Figure 8 line %S" line)
          ([], "") (String.split_on_char '\n' body)
  in
  (* the table rows between the "## Figure 8" heading and the next
     heading, header and separator rows skipped *)
  let cells line =
    let strip c =
      let c = String.trim c in
      let n = String.length c in
      if n >= 4 && String.starts_with ~prefix:"**" c
         && String.ends_with ~suffix:"**" c
      then String.sub c 2 (n - 4)
      else c
    in
    match List.map strip (String.split_on_char '|' line) with
    | "" :: rest -> List.filter (( <> ) "") rest
    | l -> l
  in
  let rec table in_fig8 acc = function
    | [] -> List.rev acc
    | line :: rest ->
        if String.starts_with ~prefix:"## " line then
          if in_fig8 then List.rev acc
          else
            table (String.starts_with ~prefix:"## Figure 8 " line) acc rest
        else if in_fig8 && String.starts_with ~prefix:"|" line then
          match cells line with
          | "benchmark" :: _ -> table in_fig8 acc rest
          | c :: _ when String.starts_with ~prefix:"---" c ->
              table in_fig8 acc rest
          | row -> table in_fig8 (row :: acc) rest
        else table in_fig8 acc rest
  in
  let rows =
    table false [] (String.split_on_char '\n' (read "../EXPERIMENTS.md"))
  in
  let got_rows, got_mean =
    List.fold_left
      (fun (rows, mean) row ->
        match row with
        | [ "geomean"; g ] -> (rows, g)
        | b :: vals -> (rows @ [ (b, vals) ], mean)
        | [] -> (rows, mean))
      ([], "") rows
  in
  Alcotest.(check (list (pair string (list string))))
    "EXPERIMENTS.md Figure 8 rows" want_rows got_rows;
  Alcotest.(check string) "EXPERIMENTS.md Figure 8 geomean" want_mean got_mean

let suite =
  [ Alcotest.test_case "fig8, fig9 and table2 match bench/transcript.txt"
      `Quick test_pinned_sections;
    Alcotest.test_case "EXPERIMENTS.md's Figure 8 table matches the transcript"
      `Quick test_experiments_fig8;
    Alcotest.test_case "unknown sections and bad job counts exit 2"
      `Quick test_bad_arguments ]
