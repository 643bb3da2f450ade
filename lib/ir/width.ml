let mask w =
  if w >= 64 then -1L else Int64.sub (Int64.shift_left 1L w) 1L

let trunc w v = Int64.logand v (mask w)

let zext = trunc

let sext w v =
  if w >= 64 then v
  else
    let v = trunc w v in
    let sign = Int64.shift_left 1L (w - 1) in
    if Int64.logand v sign <> 0L then Int64.logor v (Int64.lognot (mask w))
    else v

(* Bit length of a non-negative value; 1 for zero, 64 for negatives.
   This sits on the profiler's per-assignment path and in every
   speculative misspeculation check, so the positive case drops to a
   native int and binary-searches the length instead of shifting one
   bit per iteration. *)
let required_bits a =
  if Int64.compare a 0L < 0 then 64
  else if a = 0L then 1
  else if Int64.compare a 0x4000_0000_0000_0000L >= 0 then 63
  else begin
    (* positive and < 2^62: representable exactly as a native int *)
    let n = Int64.to_int a in
    let n, acc = if n >= 1 lsl 32 then (n lsr 32, 32) else (n, 0) in
    let n, acc = if n >= 1 lsl 16 then (n lsr 16, acc + 16) else (n, acc) in
    let n, acc = if n >= 1 lsl 8 then (n lsr 8, acc + 8) else (n, acc) in
    let n, acc = if n >= 1 lsl 4 then (n lsr 4, acc + 4) else (n, acc) in
    let n, acc = if n >= 1 lsl 2 then (n lsr 2, acc + 2) else (n, acc) in
    if n >= 2 then acc + 2 else acc + n
  end

let fits w v = required_bits v <= w

let class_of_bits b =
  if b <= 8 then 8 else if b <= 16 then 16 else if b <= 32 then 32 else 64

let signed_min w = Int64.shift_left 1L (w - 1) |> trunc w

let signed_max w = Int64.sub (Int64.shift_left 1L (w - 1)) 1L
