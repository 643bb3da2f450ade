open Bs_exec

(* Two single-flight tables, one per entry-point shape.  Capacity bounds
   keep long fuzz campaigns (unique source per trial) from accumulating
   unboundedly: a flush only costs recompiles, never changes results.

   Optionally backed by a persistent Disk_cache layer: a memory miss
   consults the disk before compiling, and a fresh compile is written
   back (successes only: a failure is memoised in memory for the life of
   the process, but the disk holds compiled programs).  The disk lookup
   runs inside the memo thunk, i.e. still single-flight per key. *)

(* Memory-tier cache traffic.  Single-flight makes these deterministic
   for a given workload: of N requesters for one key, exactly one runs
   the thunk (miss) and the rest are hits, whatever the schedule — so
   the totals are --jobs-invariant and live in the deterministic
   counters section.  (Disk-tier counters live in Disk_cache.) *)
let mem_hit =
  Bs_obs.Metrics.counter "cache_events_total"
    ~labels:[ ("tier", "memory"); ("event", "hit") ]

let mem_miss =
  Bs_obs.Metrics.counter "cache_events_total"
    ~labels:[ ("tier", "memory"); ("event", "miss") ]

let strict_tbl : (string, Driver.compiled) Memo.t = Memo.create ~cap:512 ()

let total_tbl :
    (string, (Driver.compiled, Bs_support.Diag.t list) result) Memo.t =
  Memo.create ~cap:512 ()

let source_key source = Digest.to_hex (Digest.string source)

(* --- persistence ------------------------------------------------------- *)

(* Entry payloads are Marshal images of [Driver.compiled] — pure data
   (arrays, hashtables, no closures).  The schema token versions the
   marshalled layout: Disk_cache's checksum protects against corruption
   but not against a payload written by an incompatible build, so the
   token participates in the disk key and layout changes simply miss. *)
let persist_schema = "cc-v1"

let disk : Disk_cache.t option Atomic.t = Atomic.make None

let set_persistent = function
  | None -> Atomic.set disk None
  | Some dir -> Atomic.set disk (Some (Disk_cache.open_dir dir))

let persistent () = Atomic.get disk

let disk_stats () = Option.map Disk_cache.stats (Atomic.get disk)

let disk_key key = persist_schema ^ "|" ^ key

let compiled_to_bytes (c : Driver.compiled) = Marshal.to_bytes c []

let compiled_of_bytes (b : bytes) : Driver.compiled option =
  match Marshal.from_bytes b 0 with
  | c -> Some c
  | exception _ -> None

type origin = Memory | Disk | Fresh

(* The disk-then-compile path shared by both entry points; runs inside
   the memo thunk.  [persist] decides whether a fresh value is written
   back (try_compile persists successes only). *)
let disk_or_compute ~key ~set ~encode ~decode ~persist thunk =
  match Atomic.get disk with
  | None ->
      set Fresh;
      thunk ()
  | Some dc -> (
      let dkey = disk_key key in
      match Disk_cache.load dc ~key:dkey with
      | Some payload -> (
          match decode payload with
          | Some v ->
              set Disk;
              v
          | None ->
              (* checksum passed but the decode didn't: an incompatible
                 build wrote it.  Quarantine and recompile. *)
              Disk_cache.invalidate dc ~key:dkey;
              set Fresh;
              let v = thunk () in
              if persist v then Disk_cache.store dc ~key:dkey (encode v);
              v)
      | None ->
          set Fresh;
          let v = thunk () in
          if persist v then Disk_cache.store dc ~key:dkey (encode v);
          v)

(* Run one memoised lookup and bump the memory-tier counters: the
   requester whose thunk actually ran is the miss, everyone else
   (including requesters that waited on an in-flight computation) is a
   hit — the same accounting Memo itself keeps.  Exceptions (memoised or
   fresh failures) are counted too, then rethrown. *)
let counted find =
  let ran = ref false in
  match find ran with
  | v ->
      Bs_obs.Metrics.inc (if !ran then mem_miss else mem_hit);
      v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Bs_obs.Metrics.inc (if !ran then mem_miss else mem_hit);
      Printexc.raise_with_backtrace e bt

let compile ?origin ~key thunk =
  let set o = match origin with Some r -> r := o | None -> () in
  set Memory;
  counted (fun ran ->
      Memo.find_or_add strict_tbl key (fun () ->
          ran := true;
          disk_or_compute ~key ~set ~encode:compiled_to_bytes
            ~decode:compiled_of_bytes
            ~persist:(fun _ -> true)
            thunk))

let try_compile ?origin ~key thunk =
  let set o = match origin with Some r -> r := o | None -> () in
  set Memory;
  counted (fun ran ->
      Memo.find_or_add total_tbl key (fun () ->
          ran := true;
          disk_or_compute ~key ~set
            ~encode:(function
              | Ok c -> compiled_to_bytes c
              | Error _ -> assert false (* persist is false for errors *))
            ~decode:(fun b -> Option.map Result.ok (compiled_of_bytes b))
            ~persist:Result.is_ok thunk))

let hits () = Memo.hits strict_tbl + Memo.hits total_tbl
let misses () = Memo.misses strict_tbl + Memo.misses total_tbl

(* Snapshot each table's (hits, misses) pair under its lock so a
   concurrent compile can never tear a pair; the two tables are summed
   without a global lock, which at worst lags one in-flight compile. *)
let stats () =
  let sh, sm = Memo.stats strict_tbl in
  let th, tm = Memo.stats total_tbl in
  (sh + th, sm + tm)

let reset () =
  Memo.clear strict_tbl;
  Memo.clear total_tbl
