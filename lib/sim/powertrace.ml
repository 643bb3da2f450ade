open Bs_support

(* Power-failure traces for intermittent execution.

   A trace decides, per dynamic instruction, whether the supply browns
   out before that instruction executes.  Everything is drawn up front
   from a seeded splitmix64 stream, so a trace is a pure function of
   (seed, distribution): campaigns pre-draw one seed per trial and stay
   byte-identical at any job count.

   Three outage distributions:
   - [Periodic n]: an outage every [n] dynamic instructions, with a
     seeded initial phase so different trials sample different cut
     points of the same program;
   - [Exponential mean]: i.i.d. exponential gaps — the standard model of
     a harvested-energy supply (capacitor charge crossing the brown-out
     threshold is memoryless across environments);
   - [Adversarial { every }]: after recharging for [every] instructions
     the outage waits for the next {e hot} PC — a speculative
     instruction site (drawn from the program's srcmap) — and strikes
     exactly there, probing the window between a slice operation and its
     Δ-redirect bookkeeping. *)

type dist =
  | Periodic of int
  | Exponential of float
  | Adversarial of { every : int }

type t = {
  dist : dist;
  rng : Rng.t;
  hot : (int, unit) Hashtbl.t;
  mutable next_at : int;   (* instr count at/after which the next outage fires *)
}

(* Exponential gap, at least one instruction.  1 - u avoids log 0. *)
let exp_gap rng mean =
  let u = Rng.float rng in
  max 1 (int_of_float (ceil (-.mean *. log (1.0 -. u))))

let create ?(seed = 1L) ?(hot_pcs = []) dist =
  (match dist with
  | Periodic n when n <= 0 ->
      invalid_arg "Powertrace.create: period must be positive"
  | Exponential m when m <= 0.0 ->
      invalid_arg "Powertrace.create: mean must be positive"
  | Adversarial { every } when every <= 0 ->
      invalid_arg "Powertrace.create: recharge must be positive"
  | _ -> ());
  let rng = Rng.create seed in
  let hot = Hashtbl.create 16 in
  List.iter (fun pc -> Hashtbl.replace hot pc ()) hot_pcs;
  let next_at =
    match dist with
    | Periodic n -> 1 + Rng.int rng n
    | Exponential mean -> exp_gap rng mean
    | Adversarial { every } -> 1 + Rng.int rng every
  in
  { dist; rng; hot; next_at }

let fires t ~instrs ~pc =
  if instrs < t.next_at then false
  else
    match t.dist with
    | Periodic n ->
        t.next_at <- instrs + n;
        true
    | Exponential mean ->
        t.next_at <- instrs + exp_gap t.rng mean;
        true
    | Adversarial { every } ->
        (* charged: strike only at a hot pc (never, if there are none) *)
        if Hashtbl.mem t.hot pc then begin
          t.next_at <- instrs + every;
          true
        end
        else false

let next_at t = t.next_at

(* --- rendering (CLI and reproducer headers) ----------------------------- *)

let dist_to_string = function
  | Periodic n -> "periodic:" ^ string_of_int n
  | Exponential m -> "exp:" ^ string_of_int (int_of_float m)
  | Adversarial { every } -> "hotpc:" ^ string_of_int every

let dist_of_string s =
  match String.index_opt s ':' with
  | None -> None
  | Some i -> (
      let kind = String.sub s 0 i in
      let v = String.sub s (i + 1) (String.length s - i - 1) in
      match (kind, int_of_string_opt v) with
      | "periodic", Some n when n > 0 -> Some (Periodic n)
      | "exp", Some n when n > 0 -> Some (Exponential (float_of_int n))
      | "hotpc", Some n when n > 0 -> Some (Adversarial { every = n })
      | _ -> None)
