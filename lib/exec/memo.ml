(* Single-flight memoisation.

   The table holds one of three states per key: a landed value, a landed
   failure, or an in-flight marker.  Computations run outside the lock; a
   domain finding the in-flight marker waits on the condition variable
   and retries when the computation (any computation) lands.  A capacity
   overflow flushes the whole table: because memoised computations are
   deterministic, a flush can only cost time, never change a result.
   For the same reason a failure is memoised like a value the first time
   it happens: re-running a deterministic computation fails again. *)

type 'v state =
  | Done of 'v
  | Failed of exn * Printexc.raw_backtrace
  | Running

type ('k, 'v) t = {
  tbl : ('k, 'v state) Hashtbl.t;
  lock : Mutex.t;
  landed : Condition.t;
  cap : int;
  mutable hits : int;
  mutable misses : int;
  mutable coalesced : int;
}

(* Process-wide single-flight visibility, across all tables.  Volatile:
   how many requesters pile onto an in-flight key depends on domain
   scheduling, so the value legitimately differs between runs. *)
let coalesced_metric =
  Bs_obs.Metrics.counter ~volatile:true "memo_coalesced_total"

let create ?(cap = max_int) () =
  { tbl = Hashtbl.create 64; lock = Mutex.create ();
    landed = Condition.create (); cap; hits = 0; misses = 0; coalesced = 0 }

(* [counted] distinguishes a requester's first encounter with the
   in-flight marker from its re-examinations after (possibly spurious)
   wakeups, so each coalesced requester is counted exactly once. *)
let rec find_or_add_aux t k f ~counted =
  Mutex.lock t.lock;
  match Hashtbl.find_opt t.tbl k with
  | Some (Done v) ->
      t.hits <- t.hits + 1;
      Mutex.unlock t.lock;
      v
  | Some (Failed (e, bt)) ->
      t.hits <- t.hits + 1;
      Mutex.unlock t.lock;
      Printexc.raise_with_backtrace e bt
  | Some Running ->
      (* someone else is computing this key: wait for any landing, then
         re-examine (spurious wakeups just loop) *)
      if not counted then begin
        t.coalesced <- t.coalesced + 1;
        Bs_obs.Metrics.inc coalesced_metric
      end;
      Condition.wait t.landed t.lock;
      Mutex.unlock t.lock;
      find_or_add_aux t k f ~counted:true
  | None ->
      if Hashtbl.length t.tbl >= t.cap then Hashtbl.reset t.tbl;
      run t k f

and find_or_add t k f = find_or_add_aux t k f ~counted:false

(* Execute [f] for [k], holding the in-flight marker.  Called with
   [t.lock] held; releases it around the computation. *)
and run t k f =
  t.misses <- t.misses + 1;
  Hashtbl.replace t.tbl k Running;
  Mutex.unlock t.lock;
  let outcome =
    match f () with
    | v -> Done v
    | exception e -> Failed (e, Printexc.get_raw_backtrace ())
  in
  Mutex.lock t.lock;
  Hashtbl.replace t.tbl k outcome;
  Condition.broadcast t.landed;
  Mutex.unlock t.lock;
  match outcome with
  | Done v -> v
  | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
  | Running -> assert false

let mem t k =
  Mutex.lock t.lock;
  let r =
    match Hashtbl.find_opt t.tbl k with
    | Some (Done _ | Failed _) -> true
    | Some Running | None -> false
  in
  Mutex.unlock t.lock;
  r

let clear t =
  Mutex.lock t.lock;
  Hashtbl.reset t.tbl;
  t.hits <- 0;
  t.misses <- 0;
  t.coalesced <- 0;
  Condition.broadcast t.landed;
  Mutex.unlock t.lock

let hits t = t.hits
let misses t = t.misses

let coalesced t =
  Mutex.lock t.lock;
  let r = t.coalesced in
  Mutex.unlock t.lock;
  r

(* The individual counter reads above are unsynchronised (fine for a
   single counter: int stores are atomic), but a (hits, misses) PAIR
   read field by field can be torn by a concurrent [find_or_add] landing
   between the two loads.  Reporting code that derives rates or checks
   sums must snapshot both under the lock. *)
let stats t =
  Mutex.lock t.lock;
  let r = (t.hits, t.misses) in
  Mutex.unlock t.lock;
  r

let length t =
  Mutex.lock t.lock;
  let n = Hashtbl.length t.tbl in
  Mutex.unlock t.lock;
  n
