(** Bitwidth arithmetic.

    All integer values in the IR are represented as [int64] payloads
    truncated to their declared width.  This module centralises the masking,
    extension and {b RequiredBits} computations the paper's §2.1 relies on. *)

val mask : int -> int64
(** [mask w] is a bitmask with the low [w] bits set (all 64 for [w >= 64]). *)

val trunc : int -> int64 -> int64
(** [trunc w v] keeps the low [w] bits of [v], zeroing the rest. *)

val sext : int -> int64 -> int64
(** [sext w v] sign-extends the [w]-bit value stored in the low bits of [v]
    to the full 64-bit payload. *)

val zext : int -> int64 -> int64
(** [zext w v] zero-extends; identical to {!trunc}. *)

val fits : int -> int64 -> bool
(** [fits w v] is true iff the unsigned value [v] is representable in [w]
    bits, i.e. [required_bits v <= w]. *)

val required_bits : int64 -> int
(** [required_bits a] is [⌊lg a⌋ + 1] for [a > 0] and [1] for [a = 0] — the
    number of bits needed to store the unsigned value [a] (paper §2.1).
    A value with bit 63 set requires 64 bits. *)

val class_of_bits : int -> int
(** [class_of_bits b] rounds a bit requirement up to the nearest hardware
    width class: 8, 16, 32 or 64. *)

val signed_min : int -> int64
(** [signed_min w] is the smallest signed [w]-bit value, as a truncated
    payload. *)

val signed_max : int -> int64
(** [signed_max w] is the largest signed [w]-bit value. *)
