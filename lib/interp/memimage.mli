(** Flat little-endian memory image shared by the IR interpreter and the
    machine simulator: globals laid out from {!globals_base} upward, the
    simulated stack growing down from the top.

    An image is a private mapping of [/dev/zero]: the kernel supplies a
    zero page the first time a page is touched, so creating one costs a
    few system calls whatever its size, and it holds memory only for the
    pages its run touches.  The mapping is released when the garbage
    collector reclaims the image. *)

exception Fault of string
(** Out-of-bounds access or unknown global. *)

exception Layout_error of Bs_support.Diag.t
(** The module's globals cannot be laid out — currently [BS-IMG-01]:
    two globals share a name, which would silently alias one storage
    location.  Carries a structured diagnostic rather than a bare
    string so drivers can report it like any other pipeline failure. *)

type t = {
  bytes :
    (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t;
  layout : (string, int) Hashtbl.t;  (** global name -> base address *)
  globals_end : int;                 (** first address above the globals *)
  mutable j_on : bool;               (** undo journal armed (see below) *)
  mutable j_addr : int array;
  mutable j_old : Bytes.t;
  mutable j_len : int;
}

val globals_base : int

val create : ?size:int -> Bs_ir.Ir.modul -> t
(** [create m] lays the module's globals out and applies their
    initialisers.  Default size 8 MiB.  A layout that ends exactly at
    [size] fits; one byte more raises.
    @raise Fault when the globals do not fit in [size], or when the
    image cannot be mapped (the message carries the system's reason).
    @raise Layout_error on duplicate global names. *)

val size : t -> int

val recycle : t -> unit
(** Does nothing: an image's mapping is released when the image is
    collected, and a new image starts zeroed at no cost, so there is no
    buffer to hand back.  Kept only for callers that still declare an
    image dead. *)

val addr_of : t -> string -> int
(** Base address of a global. *)

val layout_table : Bs_ir.Ir.modul -> (string, int) Hashtbl.t
(** The global layout alone — identical addresses to {!create}'s — with
    no backing buffer allocated or initialised.  For consumers that
    only resolve addresses (the assembler's [addr_of_global]).
    @raise Layout_error on duplicate global names. *)

val read : t -> width:int -> int -> int64
(** Little-endian load of [width] bits. *)

val write : t -> width:int -> int -> int64 -> unit
(** Little-endian store of [width] bits. *)

val read_int : t -> width:int -> int -> int
(** [read] for 8/16/32-bit values as a plain unsigned int — the
    allocation-free load path of the machine simulator and of the IR
    interpreter.  For 8, 16 and 32 bits only: a plain int cannot hold
    bit 63 of a 64-bit value, so 64-bit loads use [read]. *)

val write_int : t -> width:int -> int -> int -> unit
(** [write] from a plain int (low [width] bits stored).  For 8, 16 and
    32 bits only, like {!read_int}: 64-bit stores use [write]. *)

(** {3 Per-width accessors}

    [read_int]/[write_int] at one width, with the same bounds check,
    [Fault] message and journalling.  They are inlined into the machine
    simulator's fused loads and stores (a build without [-opaque]). *)

val read_u8 : t -> int -> int
val read_u16 : t -> int -> int
val read_u32 : t -> int -> int
val write_u8 : t -> int -> int -> unit
val write_u16 : t -> int -> int -> unit
val write_u32 : t -> int -> int -> unit

(** {2 Snapshots and the undo journal}

    Two restoration mechanisms for checkpointed (intermittent-power)
    execution.  A {!snapshot} is a full copy of the image — O(size) to
    take, O(size) to restore, independent of anything else — held in
    ordinary memory, so it pays for every page, touched or not.  The journal
    is the cheap path the machine model uses: arm it once, and every
    subsequent store records the bytes it overwrites; {!journal_undo}
    rolls the image back to the last {!journal_commit} in O(bytes
    written).  The two compose: a journal undo after a commit point
    restores exactly the state a snapshot at that point would. *)

type snapshot

val snapshot : t -> snapshot
(** Full copy of the image contents. *)

val restore : t -> snapshot -> unit
(** Overwrite the image with a snapshot's contents.  The undo journal is
    {b disarmed and cleared}: recorded entries describe overwritten
    contents, and an armed journal would keep recording against a
    rollback point that no longer exists.  Re-arm with {!journal_start}
    to journal the restored image.  @raise Fault on size mismatch. *)

val snapshot_equal : snapshot -> snapshot -> bool
val snapshot_size : snapshot -> int

val journal_start : t -> unit
(** Arm the journal (clearing any pending entries).  From here on every
    {!write}/{!write_int} records the overwritten bytes. *)

val journal_stop : t -> unit
(** Disarm and clear the journal. *)

val journal_pending : t -> int
(** Bytes recorded since the last commit — the dirty-byte count a
    checkpoint must flush. *)

val journal_commit : t -> unit
(** Make the current contents the rollback point: forget the recorded
    undo entries. *)

val journal_undo : t -> unit
(** Roll every write since the last commit back, restoring the contents
    at the commit point (reverse replay, so overlapping writes resolve
    correctly). *)

val set_global : t -> Bs_ir.Ir.modul -> name:string -> index:int -> int64 -> unit
(** Write one element of a global array (workload input setup). *)

val get_global : t -> Bs_ir.Ir.modul -> name:string -> index:int -> int64
(** Read one element of a global array (result inspection). *)
