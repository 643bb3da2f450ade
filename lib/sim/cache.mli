(** Set-associative LRU cache model.  The preset constructors mirror the
    paper's platform: 8 KiB 4-way L1 instruction and data caches with
    32-byte lines, backed by a 256 KiB 8-way L2.

    One way scan does the hit, fill and LRU bookkeeping.  {!access}
    reaches it for every line but the previous access's;
    {!access_hinted} first tries one slot the caller remembers for the
    line and scans only when that slot no longer holds it (the simulator
    sends every instruction fetch through it, with one hint per PC); and
    {!bump_hits} replays guaranteed same-line hits in one step.  Each
    leaves every field exactly as the same sequence of {!access} calls
    would. *)

type t = {
  name : string;
  sets : int;
  ways : int;
  line_bytes : int;
  line_shift : int;
  set_mask : int;
  set_shift : int;
  tags : int array;
  stamp : int array;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable last_line : int;
  mutable last_slot : int;
}

val create : name:string -> size_bytes:int -> ways:int -> line_bytes:int -> t

val access : t -> int -> bool
(** [access t addr] updates LRU state (filling on miss) and returns
    [true] on hit. *)

val access_hinted : t -> int array -> int -> int -> bool
(** [access_hinted t hints i addr] is [access t addr] with [hints.(i)]
    as a remembered slot: when it lies in the line's set and holds the
    line, the line hits there without a way scan; otherwise the set is
    scanned as {!access} does and [hints.(i)] is set to the slot the
    line ends up in (an access to the previous access's line takes
    {!access}'s fast path and leaves the hint alone).  Every field of
    [t] — tick, hits, misses, tags, stamps, [last_line], [last_slot] —
    is left exactly as {!access} would leave it, whatever the hint held,
    so a stale or wrong hint costs one scan and never changes a result.
    Any int is a valid hint; [-1] is the usual "none yet". *)

val bump_hits : t -> int -> unit
(** [bump_hits t n] records [n] guaranteed same-line hits to the line of
    the previous access in one step — byte-identical to calling {!access}
    [n] more times with addresses in that line.  Only valid when nothing
    has touched the cache since the last access; the superblock trace-JIT
    uses it to batch the fetches of a fused straight-line run. *)

val accesses : t -> int
(** Total accesses (hits + misses). *)

val reset : t -> unit

val l1i : unit -> t
val l1d : unit -> t
val l2 : unit -> t
