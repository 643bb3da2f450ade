(* Set-associative LRU cache model.

   The configuration mirrors the paper's platform: 8 KiB 4-way L1
   instruction and data caches with 32-byte lines, backed by a 256 KiB
   8-way L2 and fixed-latency DRAM.

   Tags and LRU stamps live in flat [sets * ways] arrays indexed by
   [set * ways + way]: the way scan on the simulator's hottest path is a
   handful of adjacent unchecked loads instead of a bounds-checked
   two-level indirection.  Every index is derived from [set_mask] and
   [ways], so it is in range by construction.

   One lookup ({!scan}) does the hit, fill and LRU bookkeeping.  Two
   front ends reach it: {!access}, and {!access_hinted}, which first
   tries the one slot a caller remembers for the line (the simulator's
   instruction fetches, whose PC always maps to the same line).  A hint
   only skips the way scan when the slot still holds the line, so the
   two leave every field identical. *)

type t = {
  name : string;
  sets : int;
  ways : int;
  line_bytes : int;
  line_shift : int;              (* log2 line_bytes *)
  set_mask : int;                (* sets - 1; geometry is power-of-two *)
  set_shift : int;               (* log2 sets *)
  tags : int array;              (* [set * ways + way] = tag, -1 empty *)
  stamp : int array;             (* LRU timestamps, same layout *)
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable last_line : int;       (* line of the previous access, -1 none *)
  mutable last_slot : int;       (* flat slot it resides in *)
}

let log2_exact n =
  let rec go k = if 1 lsl k = n then k else go (k + 1) in
  if n <= 0 || n land (n - 1) <> 0 then
    invalid_arg "Cache.create: geometry must be a power of two"
  else go 0

let create ~name ~size_bytes ~ways ~line_bytes =
  let lines = size_bytes / line_bytes in
  let sets = lines / ways in
  { name; sets; ways; line_bytes;
    line_shift = log2_exact line_bytes;
    set_mask = sets - 1;
    set_shift = log2_exact sets;
    tags = Array.make (sets * ways) (-1);
    stamp = Array.make (sets * ways) 0;
    tick = 0; hits = 0; misses = 0; last_line = -1; last_slot = 0 }

(* A hit on the previous access's line; the tick has already advanced. *)
let[@inline] same_line_hit t =
  t.hits <- t.hits + 1;
  Array.unsafe_set t.stamp t.last_slot t.tick

(* A hit on [line] in [slot]; the tick has already advanced. *)
let[@inline] hit_in t line slot =
  t.hits <- t.hits + 1;
  Array.unsafe_set t.stamp slot t.tick;
  t.last_line <- line;
  t.last_slot <- slot

(* The way scan of [line]'s set, the tick already advanced: stamp the
   way holding the line, or fill the least recently used way (the first
   of the oldest stamps).  Leaves [last_line]/[last_slot] at the line
   and its slot; [true] on hit. *)
let scan t line =
  let base = (line land t.set_mask) * t.ways in
  let stop = base + t.ways in
  let tag = line lsr t.set_shift in
  let tags = t.tags and stamp = t.stamp in
  let w = ref base in
  while !w < stop && Array.unsafe_get tags !w <> tag do incr w done;
  if !w < stop then begin
    hit_in t line !w;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    let victim = ref base in
    for w = base + 1 to stop - 1 do
      if Array.unsafe_get stamp w < Array.unsafe_get stamp !victim then
        victim := w
    done;
    Array.unsafe_set tags !victim tag;
    Array.unsafe_set stamp !victim t.tick;
    t.last_line <- line;
    t.last_slot <- !victim;
    false
  end

(** [access t addr] looks the address up, updating LRU state and filling on
    miss.  Returns [true] on hit. *)
let[@inline] access t addr =
  t.tick <- t.tick + 1;
  let line = addr lsr t.line_shift in
  (* Back-to-back accesses to the same line always hit (nothing between
     two accesses of this cache can evict it), so the common sequential
     case skips the way scan; hit/miss/LRU state stays exact. *)
  if line = t.last_line then begin
    same_line_hit t;
    true
  end
  else scan t line

(** [access_hinted t hints i addr] is [access t addr] with [hints.(i)] as
    the slot to try first: when that slot lies in the line's set and
    holds its tag, the line hits there with no way scan; otherwise the
    set is scanned as {!access} does, and [hints.(i)] is set to the
    slot the line ends up in.  Every field of [t] is left as {!access}
    would leave it, whatever the hint held.  (A same-line access takes
    {!access}'s fast path and leaves the hint alone.) *)
let[@inline] access_hinted t (hints : int array) i addr =
  t.tick <- t.tick + 1;
  let line = addr lsr t.line_shift in
  if line = t.last_line then begin
    same_line_hit t;
    true
  end
  else begin
    let slot = hints.(i) in
    let d = slot - ((line land t.set_mask) * t.ways) in
    if d >= 0 && d < t.ways
       && Array.unsafe_get t.tags slot = line lsr t.set_shift
    then begin
      hit_in t line slot;
      true
    end
    else begin
      let hit = scan t line in
      hints.(i) <- t.last_slot;
      hit
    end
  end

(** [bump_hits t n] records [n] guaranteed same-line hits to the line of
    the previous access, exactly as if {!access} had been called [n] more
    times with addresses in that line: the tick advances by [n], the hit
    counter by [n], and the line's LRU stamp moves to the new tick.  The
    caller must guarantee nothing touched this cache since the last
    access (the trace-JIT batches the fetches of a fused superblock this
    way: within one straight-line run, only the first access of each
    instruction-cache line can miss). *)
let[@inline] bump_hits t n =
  if n > 0 then begin
    t.tick <- t.tick + n;
    t.hits <- t.hits + n;
    Array.unsafe_set t.stamp t.last_slot t.tick
  end

let accesses t = t.hits + t.misses

let reset t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.stamp 0 (Array.length t.stamp) 0;
  t.tick <- 0;
  t.hits <- 0;
  t.misses <- 0;
  t.last_line <- -1;
  t.last_slot <- 0

(** The paper's memory hierarchy, fresh. *)
let l1i () = create ~name:"I$" ~size_bytes:(8 * 1024) ~ways:4 ~line_bytes:32
let l1d () = create ~name:"D$" ~size_bytes:(8 * 1024) ~ways:4 ~line_bytes:32
let l2 () = create ~name:"L2" ~size_bytes:(256 * 1024) ~ways:8 ~line_bytes:32
