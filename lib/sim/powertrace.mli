(** Power-failure traces for intermittent execution.

    A trace decides, per dynamic instruction, whether the supply browns
    out before that instruction executes.  All randomness is drawn from
    a seeded splitmix64 stream, so a trace is a pure function of
    (seed, distribution) and campaigns that pre-draw per-trial seeds are
    byte-identical at any [--jobs] value. *)

(** Outage distributions. *)
type dist =
  | Periodic of int
      (** one outage every [n] instructions, seeded initial phase *)
  | Exponential of float
      (** i.i.d. exponential gaps with the given mean — the memoryless
          harvested-energy supply model *)
  | Adversarial of { every : int }
      (** recharge for [every] instructions, then strike at the next
          {e hot} PC — a speculative-instruction site from the
          program's srcmap *)

type t

val create : ?seed:int64 -> ?hot_pcs:int list -> dist -> t
(** [hot_pcs] are the PCs an [Adversarial] trace strikes at (ignored by
    the other distributions; an adversarial trace with no hot PCs never
    fires).  @raise Invalid_argument on a non-positive period/mean. *)

val fires : t -> instrs:int -> pc:int -> bool
(** [fires t ~instrs ~pc] — does an outage strike before the instruction
    at [pc] (the [instrs]-th dynamic instruction) executes?  Advances
    the trace's internal schedule when it returns [true].  [instrs]
    must be non-decreasing across calls. *)

val next_at : t -> int
(** The smallest [instrs] at which {!fires} can return [true] next: it
    returns [false], and leaves the trace untouched, for every smaller
    count.  An [Adversarial] trace past its recharge reports a count
    already reached, since it may strike at the next hot PC. *)

val dist_to_string : dist -> string
(** ["periodic:N"], ["exp:N"], ["hotpc:N"] — the CLI / reproducer-header
    syntax. *)

val dist_of_string : string -> dist option
