(* A fixed worker pool over OCaml 5 domains.

   Work distribution is a single atomic cursor over the input array:
   every worker (the spawned domains plus the calling domain) claims the
   next unclaimed index, computes, and stores the result at that index.
   Order is therefore preserved by construction, whatever the
   interleaving.  Exceptions are captured per index and rethrown after
   the join in input order, so the first failure a caller observes does
   not depend on scheduling.

   A failing item stops the batch early: workers finish the items they
   are computing and stop claiming new ones, so a failed batch drains
   promptly instead of running every remaining item to completion.
   Determinism of the rethrown failure survives the early stop: the
   cursor claims indices in order, so the set of executed items is
   always a prefix of the input, and the lowest failing index in any
   schedule is the lowest index that fails at all. *)

let default_jobs () = Domain.recommended_domain_count ()

(* Pool visibility: items actually executed vs items a failed batch
   abandoned.  Volatile — how many items are
   in flight when a batch ends early depends on scheduling — but the
   counts let reporting code observe pool behaviour without reaching
   into [map]'s internals.  Item latency feeds a histogram for the
   same reason. *)
let items_run = Bs_obs.Metrics.counter ~volatile:true "pool_items_total"
    ~labels:[ ("event", "run") ]

let items_cancelled =
  Bs_obs.Metrics.counter ~volatile:true "pool_items_total"
    ~labels:[ ("event", "cancelled") ]

let item_ms = Bs_obs.Metrics.histogram "pool_item_ms"

let stats () =
  (Bs_obs.Metrics.counter_value items_run,
   Bs_obs.Metrics.counter_value items_cancelled)

type 'b cell =
  | Pending
  | Ok of 'b
  | Exn of exn * Printexc.raw_backtrace

let map ~jobs f a =
  let n = Array.length a in
  let jobs = min jobs n in
  (* When tracing, each work item is bracketed in a span; the events
     carry the executing domain's id, so a trace shows which domain ran
     which index (pool occupancy).  Identical span structure on the
     sequential path keeps traces comparable across job counts. *)
  let traced i x =
    let t0 = Unix.gettimeofday () in
    let finally () =
      Bs_obs.Metrics.observe item_ms ((Unix.gettimeofday () -. t0) *. 1e3);
      Bs_obs.Metrics.inc items_run
    in
    if Bs_obs.Trace.is_enabled () then
      Bs_obs.Trace.with_span ~args:[ ("index", string_of_int i) ] "pool:item"
        (fun () -> Fun.protect ~finally (fun () -> f x))
    else Fun.protect ~finally (fun () -> f x)
  in
  if jobs <= 1 || n <= 1 then begin
    (* sequential path: the first failure propagates immediately, which
       is exactly the lowest-index failure *)
    Array.mapi
      (fun i x ->
        match traced i x with
        | v -> v
        | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            Bs_obs.Metrics.inc ~by:(n - i - 1) items_cancelled;
            Printexc.raise_with_backtrace e bt)
      a
  end
  else begin
    let results = Array.make n Pending in
    let cursor = Atomic.make 0 in
    let failed = Atomic.make false in
    let worker () =
      let rec loop () =
        if not (Atomic.get failed) then begin
          let i = Atomic.fetch_and_add cursor 1 in
          if i < n then begin
            let r =
              match traced i (Array.unsafe_get a i) with
              | v -> Ok v
              | exception e ->
                  Atomic.set failed true;
                  Exn (e, Printexc.get_raw_backtrace ())
            in
            results.(i) <- r;
            loop ()
          end
        end
      in
      loop ()
    in
    let domains = Array.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join domains;
    let pending =
      Array.fold_left
        (fun acc c -> match c with Pending -> acc + 1 | _ -> acc)
        0 results
    in
    if pending > 0 then Bs_obs.Metrics.inc ~by:pending items_cancelled;
    (* rethrow the lowest-index failure; items are only left pending
       when one failed *)
    Array.iter
      (function
        | Exn (e, bt) -> Printexc.raise_with_backtrace e bt
        | Ok _ | Pending -> ())
      results;
    Array.map
      (function
        | Ok v -> v
        | Exn _ | Pending -> assert false)
      results
  end

let map_list ~jobs f l = Array.to_list (map ~jobs f (Array.of_list l))

let run_all ~jobs thunks = ignore (map ~jobs (fun g -> g ()) thunks)
