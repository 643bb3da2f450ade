open Bs_ir

(* Bitwidth profiling data (§3.2.2).

   For each SIR variable (identified by function name and instruction id)
   we track the minimum, maximum and mean RequiredBits over all dynamic
   assignments, from which the MAX / AVG / MIN target-selection heuristics
   are derived.  We also keep module-wide histograms of dynamic integer
   instructions classified by required bits and by programmer-selected
   bits, which regenerate Figure 1.

   Recording is the hot path of every profiling run, so variables are
   stored per function: a {!cursor} resolves the function-name half of
   the key once per compiled function, and a {!slot} everything but the
   value once per committing instruction.  The interpreter applies
   {!record} to a slot inline in its commit, so a dynamic assignment
   costs a few loads, compares and stores, with no call and no boxed
   value. *)

type heuristic = Hmax | Havg | Hmin

let heuristic_name = function Hmax -> "MAX" | Havg -> "AVG" | Hmin -> "MIN"

type var_stats = {
  mutable s_min : int;
  mutable s_max : int;
  mutable s_sum : int;
  mutable s_count : int;
}

type t = {
  funcs : (string, (int, var_stats) Hashtbl.t) Hashtbl.t;
  (* histograms indexed by width class position: 8,16,32,64 *)
  req_hist : int array;
  prog_hist : int array;
}

let class_index bits =
  if bits <= 8 then 0 else if bits <= 16 then 1 else if bits <= 32 then 2 else 3

let classes = [| 8; 16; 32; 64 |]

let create () =
  { funcs = Hashtbl.create 16; req_hist = Array.make 4 0;
    prog_hist = Array.make 4 0 }

type cursor = { c_prof : t; c_vars : (int, var_stats) Hashtbl.t }

let cursor t ~func =
  let vars =
    match Hashtbl.find_opt t.funcs func with
    | Some tbl -> tbl
    | None ->
        let tbl = Hashtbl.create 64 in
        Hashtbl.replace t.funcs func tbl;
        tbl
  in
  { c_prof = t; c_vars = vars }

type slot = {
  sl_vars : (int, var_stats) Hashtbl.t;
  sl_iid : int;
  mutable sl_stats : var_stats;
      (* the variable's cell, or [unentered] until the slot's first
         assignment looks it up *)
  sl_class : int;  (* the programmer-width class's index *)
  sl_req : int array;  (* the profile's two histograms *)
  sl_prog : int array;
}

let fresh_stats () = { s_min = max_int; s_max = 0; s_sum = 0; s_count = 0 }

(* Every slot's cell before its first assignment: its zero count sends
   that assignment to [enter], so it is never written. *)
let unentered = fresh_stats ()

let slot c ~iid ~width =
  (* width 1 (booleans) are counted in the 8-bit class *)
  { sl_vars = c.c_vars; sl_iid = iid; sl_stats = unentered;
    sl_class = class_index width; sl_req = c.c_prof.req_hist;
    sl_prog = c.c_prof.prog_hist }

(* The slot's first assignment finds its variable's cell, entering a
   fresh one if no slot of the variable was assigned before: a variable
   never assigned stays out of the profile. *)
let enter sl =
  let s =
    match Hashtbl.find_opt sl.sl_vars sl.sl_iid with
    | Some s -> s
    | None ->
        let s = fresh_stats () in
        Hashtbl.replace sl.sl_vars sl.sl_iid s;
        s
  in
  sl.sl_stats <- s;
  s

let[@inline] record sl v =
  let s = sl.sl_stats in
  let s = if s.s_count = 0 then enter sl else s in
  let bits = Width.required_bits v in
  if bits < s.s_min then s.s_min <- bits;
  if bits > s.s_max then s.s_max <- bits;
  s.s_sum <- s.s_sum + bits;
  s.s_count <- s.s_count + 1;
  (* both indices are in [0, 3] *)
  let h = sl.sl_req and k = class_index bits in
  Array.unsafe_set h k (Array.unsafe_get h k + 1);
  let h = sl.sl_prog and k = sl.sl_class in
  Array.unsafe_set h k (Array.unsafe_get h k + 1)

let stats t ~func ~iid =
  match Hashtbl.find_opt t.funcs func with
  | None -> None
  | Some tbl -> Hashtbl.find_opt tbl iid

(** Iterate every profiled variable. *)
let iter_vars t f =
  Hashtbl.iter
    (fun func tbl -> Hashtbl.iter (fun iid s -> f ~func ~iid s) tbl)
    t.funcs

(** Target bitwidth [T(v)] under a heuristic, as a hardware width class
    (8/16/32/64), or [None] if the variable was never assigned during
    profiling. *)
let target t heuristic ~func ~iid =
  match stats t ~func ~iid with
  | None -> None
  | Some s ->
      let bits =
        match heuristic with
        | Hmax -> s.s_max
        | Hmin -> s.s_min
        | Havg -> (s.s_sum + s.s_count - 1) / s.s_count (* ceiling mean *)
      in
      Some (Width.class_of_bits bits)

(** Histogram of dynamic integer instructions by required-bits class, as
    fractions summing to 1 (Figure 1a). *)
let required_distribution t =
  let total = Array.fold_left ( + ) 0 t.req_hist in
  if total = 0 then [||]
  else Array.map (fun n -> float_of_int n /. float_of_int total) t.req_hist

(** Histogram by programmer-selected width class (Figure 1b). *)
let programmer_distribution t =
  let total = Array.fold_left ( + ) 0 t.prog_hist in
  if total = 0 then [||]
  else Array.map (fun n -> float_of_int n /. float_of_int total) t.prog_hist

(** Distribution of dynamic instructions under a heuristic's selections
    (Figure 5): each variable's dynamic count lands in the class the
    heuristic assigns it. *)
let heuristic_distribution t heuristic =
  let hist = Array.make 4 0 in
  iter_vars t (fun ~func ~iid (s : var_stats) ->
      match target t heuristic ~func ~iid with
      | Some cls -> hist.(class_index cls) <- hist.(class_index cls) + s.s_count
      | None -> ());
  let total = Array.fold_left ( + ) 0 hist in
  if total = 0 then [||]
  else Array.map (fun n -> float_of_int n /. float_of_int total) hist

(** Distribution under an arbitrary per-variable selection (used for the
    demanded-bits and basic-block-coercion comparisons of Figures 1c/1d).
    [select ~func ~iid] returns the selected width for that variable. *)
let selection_distribution t ~select =
  let hist = Array.make 4 0 in
  iter_vars t (fun ~func ~iid (s : var_stats) ->
      let cls = select ~func ~iid in
      hist.(class_index cls) <- hist.(class_index cls) + s.s_count);
  let total = Array.fold_left ( + ) 0 hist in
  if total = 0 then [||]
  else Array.map (fun n -> float_of_int n /. float_of_int total) hist
