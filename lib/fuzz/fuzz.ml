open Bs_support
open Bitspec

(* Campaign driver: seed stream -> generate -> oracle -> triage -> reduce.

   Buckets deduplicate: the first trial landing in a bucket is kept (and
   reduced); later occurrences only bump the tally.  The reducer re-runs
   the oracle per candidate with the same arguments and planted fault, so
   a reduced reproducer lands in the same bucket by construction. *)

type crash = {
  trial : int;
  tseed : int;
  bucket : Bucket.t;
  details : string;
  source : string;
  reduced : string;
  args : int64 list;
}

type t = {
  seed : int;
  requested : int;
  executed : int;
  agreed : int;
  skipped : int;
  crashes : crash list;
  tally : Bucket.tally;
  plant : Driver.pass_fault option;
}

let run ?plant ?budget ?(reduce = true) ?size ?fuel ?(jobs = 1)
    ?(engine = Bs_sim.Machine.Jit) ~seed ~trials () =
  let rng = Rng.create (Int64.of_int seed) in
  let started = Sys.time () in
  let over_budget () =
    match budget with
    | Some b -> Sys.time () -. started > b
    | None -> false
  in
  let agreed = ref 0 and skipped = ref 0 and executed = ref 0 in
  let tally = ref Bucket.empty_tally in
  let crashes = ref [] in
  let seen key = List.exists (fun c -> Bucket.key c.bucket = key) !crashes in
  (* Trials run in chunks.  Each chunk's seeds are drawn from the rng
     sequentially up front — the seed stream is identical whatever
     [jobs] — then the (independent, rng-free) generate+oracle runs fan
     out over the pool, and tallying, dedup and reduction fold over the
     verdicts in trial order.  With [jobs] = 1 the chunk size is 1, so
     the budget check falls exactly where the sequential loop had it. *)
  let chunk = if jobs <= 1 then 1 else jobs * 4 in
  let i = ref 0 in
  while !i < trials && not (over_budget ()) do
    let k = min chunk (trials - !i) in
    let tseeds =
      Array.init k (fun _ ->
          Int64.to_int (Int64.logand (Rng.next rng) 0x3FFFFFFFL))
    in
    let verdicts =
      Bs_obs.Trace.with_span "fuzz:fanout" @@ fun () ->
      Bs_exec.Pool.map ~jobs
        (fun tseed ->
          let source = Gen.program ?size tseed in
          let args = [ Gen.entry_arg tseed ] in
          ( source, args,
            Oracle.run ?plant ?fuel ~engine ~source ~entry:Gen.entry ~args
              () ))
        tseeds
    in
    Array.iteri
      (fun off (source, args, verdict) ->
        incr executed;
        match verdict with
        | Oracle.Agree _ -> incr agreed
        | Oracle.Skip _ -> incr skipped
        | Oracle.Crash { bucket; details } ->
            let key = Bucket.key bucket in
            tally := Bucket.add !tally key;
            if not (seen key) then begin
              let reproduces s =
                match
                  Oracle.run ?plant ?fuel ~engine ~source:s ~entry:Gen.entry
                    ~args ()
                with
                | Oracle.Crash { bucket = b; _ } -> Bucket.key b = key
                | _ -> false
              in
              let reduced =
                if reduce then Reduce.run ~pred:reproduces source else source
              in
              crashes :=
                { trial = !i + off; tseed = tseeds.(off); bucket; details;
                  source; reduced; args }
                :: !crashes
            end)
      verdicts;
    i := !i + k
  done;
  { seed; requested = trials; executed = !executed; agreed = !agreed;
    skipped = !skipped; crashes = List.rev !crashes; tally = !tally; plant }

let meta_of_crash t (c : crash) =
  { Corpus.bucket_key = Bucket.key c.bucket; entry = Gen.entry;
    args = c.args; train = Gen.train_args; fault = t.plant; power = None }

(* corpus file name: bucket key slug + the trial seed *)
let crash_name c =
  let slug =
    String.map
      (fun ch ->
        if (ch >= 'a' && ch <= 'z') || (ch >= '0' && ch <= '9')
           || (ch >= 'A' && ch <= 'Z')
        then ch
        else '-')
      (Bucket.key c.bucket)
  in
  Printf.sprintf "%s-seed%d.mc" slug c.tseed

let save_corpus ~dir t =
  List.map
    (fun c -> Corpus.save ~dir ~name:(crash_name c) (meta_of_crash t c) c.reduced)
    t.crashes

let report t =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "fuzz campaign: seed %d, %d/%d trials%s\n" t.seed
       t.executed t.requested
       (match t.plant with
       | Some f -> " (planted fault " ^ Corpus.fault_to_string f ^ ")"
       | None -> ""));
  Buffer.add_string b
    (Printf.sprintf "agree %d, skip %d, crash %d (%d distinct bucket%s)\n\n"
       t.agreed t.skipped (Bucket.total t.tally) (List.length t.crashes)
       (if List.length t.crashes = 1 then "" else "s"));
  Buffer.add_string b (Bucket.report t.tally);
  List.iter
    (fun c ->
      Buffer.add_string b
        (Printf.sprintf
           "\n--- bucket %s (trial %d, seed %d)\n%s\nminimized to %d line%s:\n"
           (Bucket.key c.bucket) c.trial c.tseed c.details
           (Reduce.line_count c.reduced)
           (if Reduce.line_count c.reduced = 1 then "" else "s"));
      Buffer.add_string b c.reduced;
      if c.reduced = "" || c.reduced.[String.length c.reduced - 1] <> '\n'
      then Buffer.add_char b '\n';
      Buffer.add_string b
        ("replay: "
        ^ Corpus.replay_command ~file:(crash_name c) (meta_of_crash t c)
        ^ "\n"))
    t.crashes;
  Buffer.contents b
