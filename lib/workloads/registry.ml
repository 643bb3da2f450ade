(* All benchmarks, in the paper's Figure 8 order. *)

let all : Workload.t list =
  [ Crc32.workload;
    Fft.workload;
    Basicmath.workload;
    Bitcount.workload;
    Blowfish.workload;
    Dijkstra.workload;
    Patricia.workload;
    Qsort_w.workload;
    Rijndael.workload;
    Sha.workload;
    Stringsearch.workload;
    Susan.edges;
    Susan.corners;
    Susan.smoothing ]

let names = List.map (fun (w : Workload.t) -> w.name) all

let find name =
  match List.find_opt (fun (w : Workload.t) -> w.name = name) all with
  | Some w -> w
  | None ->
      let hint =
        match
          List.find_opt
            (fun n -> String.lowercase_ascii n = String.lowercase_ascii name)
            names
        with
        | Some n -> Printf.sprintf " (did you mean %s?)" n
        | None -> ""
      in
      invalid_arg
        (Printf.sprintf "unknown workload %s%s; known workloads: %s" name hint
           (String.concat ", " names))
