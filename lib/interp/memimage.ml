open Bs_ir

(* Flat little-endian memory image shared by the IR interpreter and the
   machine simulator.  Globals are laid out from [globals_base] upward;
   the stack grows down from the top. *)

exception Fault of string

exception Layout_error of Bs_support.Diag.t

type buf =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  bytes : buf;
  layout : (string, int) Hashtbl.t;   (* global name -> address *)
  globals_end : int;
  (* Undo journal for checkpoint/restore (intermittent execution): when
     enabled, every store records the bytes it overwrites, so the image
     can be rolled back to the last commit point in O(bytes written)
     instead of O(image size).  Disabled, the only cost is one branch
     per store. *)
  mutable j_on : bool;
  mutable j_addr : int array;         (* journalled byte addresses *)
  mutable j_old : Bytes.t;            (* their pre-store values *)
  mutable j_len : int;
}

let globals_base = 0x1000

let align a n = (n + a - 1) / a * a

(* Native-order unaligned accesses; every caller has bounds-checked. *)
external get16u : buf -> int -> int = "%caml_bigstring_get16u"
external set16u : buf -> int -> int -> unit = "%caml_bigstring_set16u"
external get64u : buf -> int -> int64 = "%caml_bigstring_get64u"
external swap16 : int -> int = "%bswap16"

let[@inline] get_u16le b i =
  if Sys.big_endian then swap16 (get16u b i) else get16u b i

let[@inline] set_u16le b i v =
  set16u b i (if Sys.big_endian then swap16 v else v)

(* A private mapping of /dev/zero: the kernel hands out a zero page on
   first touch, so an image costs only the pages its run touches, and
   the mapping's finaliser unmaps it when the image is collected.  The
   device is opened read-write because [map_file] extends a file shorter
   than the mapping by writing its last byte, which /dev/zero discards. *)
let map_zeroed size =
  match
    let fd = Unix.openfile "/dev/zero" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        Unix.map_file fd Bigarray.char Bigarray.c_layout false [| size |])
  with
  | g -> Bigarray.array1_of_genarray g
  | exception Unix.Unix_error (e, _, _) ->
      raise (Fault ("cannot map a memory image: " ^ Unix.error_message e))

let recycle (_ : t) = ()

(* The pure layout computation shared by [create] and [layout_table]:
   global name -> address, plus the end of the globals region. *)
let compute_layout (m : Ir.modul) =
  let layout = Hashtbl.create 16 in
  let cursor = ref globals_base in
  List.iter
    (fun (g : Ir.global) ->
      let esz = Int.max 1 (g.elem_width / 8) in
      cursor := align esz !cursor;
      (* Two globals with one name would silently alias the same storage
         (and the second layout would win), turning every store through
         one into a store through both.  Refuse the module instead. *)
      if Hashtbl.mem layout g.gname then
        raise
          (Layout_error
             (Bs_support.Diag.error ~code:"BS-IMG-01"
                ~phase:Bs_support.Diag.Assemble
                (Printf.sprintf
                   "duplicate global '%s': two definitions would alias one \
                    storage location"
                   g.gname)));
      Hashtbl.replace layout g.gname !cursor;
      cursor := !cursor + (esz * g.count))
    m.globals;
  (layout, !cursor)

(** [layout_table m] computes the global layout without allocating (or
    zeroing) a backing buffer — for consumers that only need addresses,
    e.g. the assembler's [addr_of_global]. *)
let layout_table (m : Ir.modul) : (string, int) Hashtbl.t =
  fst (compute_layout m)

(** [create ?size m] lays out the globals of [m] and returns a zeroed
    memory image with initialisers applied. *)
let create ?(size = 8 * 1024 * 1024) (m : Ir.modul) =
  let layout, cursor = compute_layout m in
  let cursor = ref cursor in
  (* [cursor] now points one past the last global byte, so the layout
     fits exactly when [cursor = size].  Check before allocating or
     initialising anything. *)
  if !cursor > size then raise (Fault "memory too small for globals");
  let t =
    { bytes = map_zeroed size; layout; globals_end = !cursor;
      j_on = false; j_addr = [||]; j_old = Bytes.empty; j_len = 0 }
  in
  (* Apply initialisers.  This runs once per simulation, and large
     initialised tables are common (lookup tables, input arrays), so the
     common element widths take an unboxed path: bounds are established
     once per global, then the bytes go in with untagged int shifts. *)
  let bytes = t.bytes in
  List.iter
    (fun (g : Ir.global) ->
      let base = Hashtbl.find layout g.gname in
      let esz = Int.max 1 (g.elem_width / 8) in
      let n_init = Array.length g.ginit in
      if esz <= 4 && base >= 0 && base + (esz * n_init) <= size then
        for i = 0 to n_init - 1 do
          (* elements are at most 32 bits wide here, so the low bits of
             [to_int] carry the whole value *)
          let x = Int64.to_int (Array.unsafe_get g.ginit i) in
          let addr = base + (i * esz) in
          for b = 0 to esz - 1 do
            Bigarray.Array1.unsafe_set bytes (addr + b)
              (Char.unsafe_chr ((x lsr (8 * b)) land 0xFF))
          done
        done
      else
        Array.iteri
          (fun i v ->
            let addr = base + (i * esz) in
            for b = 0 to esz - 1 do
              Bigarray.Array1.set bytes (addr + b)
                (Char.chr
                   (Int64.to_int
                      (Int64.logand
                         (Int64.shift_right_logical v (8 * b))
                         0xFFL)))
            done)
          g.ginit)
    m.globals;
  t

let size t = Bigarray.Array1.dim t.bytes

let addr_of t name =
  match Hashtbl.find t.layout name with
  | a -> a
  | exception Not_found -> raise (Fault ("unknown global " ^ name))

(* The bounds check's failure, out of line, so that a check inlined into
   a simulated load or store is two compares and a branch. *)
let out_of_bounds addr width =
  raise (Fault (Printf.sprintf "out-of-bounds access at 0x%x (i%d)" addr width))

(* The bounds check of an access of [bytes] bytes, [width] bits. *)
let[@inline] check_n t addr bytes width =
  if addr < 0 || addr + bytes > Bigarray.Array1.dim t.bytes then
    out_of_bounds addr width

let check t addr width = check_n t addr (Int.max 1 (width / 8)) width

(* --- snapshots and the undo journal ------------------------------------ *)

type snapshot = buf

let snapshot t =
  let s = Bigarray.Array1.create Bigarray.char Bigarray.c_layout (size t) in
  Bigarray.Array1.blit t.bytes s;
  s

(* Restoring a snapshot replaces the whole image, so any recorded undo
   entries describe contents that no longer exist — and an armed journal
   would keep recording against the *new* contents while the caller still
   believes the old rollback point holds.  Restore therefore disarms AND
   clears the journal; callers that want journalling across a restore
   re-arm with [journal_start]. *)
let restore t s =
  if Bigarray.Array1.dim s <> size t then
    raise (Fault "snapshot size does not match the image");
  Bigarray.Array1.blit s t.bytes;
  t.j_on <- false;
  t.j_len <- 0

(* Eight bytes per comparison: polymorphic [=] on bigarrays compares
   element by element. *)
let snapshot_equal a b =
  let n = Bigarray.Array1.dim a in
  let rec from i =
    if i + 8 <= n then get64u a i = get64u b i && from (i + 8)
    else
      i >= n
      || Bigarray.Array1.unsafe_get a i = Bigarray.Array1.unsafe_get b i
         && from (i + 1)
  in
  n = Bigarray.Array1.dim b && from 0

let snapshot_size = Bigarray.Array1.dim

(* Record the [n] bytes at [addr] about to be overwritten.  The address
   was already bounds-checked by the caller. *)
let journal_record t addr n =
  let need = t.j_len + n in
  if need > Array.length t.j_addr then begin
    let cap = Int.max 256 (Int.max need (2 * Array.length t.j_addr)) in
    let a = Array.make cap 0 in
    Array.blit t.j_addr 0 a 0 t.j_len;
    t.j_addr <- a;
    let b = Bytes.create cap in
    Bytes.blit t.j_old 0 b 0 t.j_len;
    t.j_old <- b
  end;
  for k = 0 to n - 1 do
    t.j_addr.(t.j_len + k) <- addr + k;
    Bytes.unsafe_set t.j_old (t.j_len + k)
      (Bigarray.Array1.unsafe_get t.bytes (addr + k))
  done;
  t.j_len <- t.j_len + n

let journal_start t =
  t.j_on <- true;
  t.j_len <- 0

let journal_stop t =
  t.j_on <- false;
  t.j_len <- 0

let journal_pending t = t.j_len

let journal_commit t = t.j_len <- 0

(* Reverse replay: later entries undo first, so overlapping writes to the
   same byte resolve to the value live at the last commit point. *)
let journal_undo t =
  for k = t.j_len - 1 downto 0 do
    Bigarray.Array1.unsafe_set t.bytes t.j_addr.(k)
      (Bytes.unsafe_get t.j_old k)
  done;
  t.j_len <- 0

(** [read t ~width addr] loads a [width]-bit little-endian value. *)
let read t ~width addr =
  check t addr width;
  let n = Int.max 1 (width / 8) in
  let v = ref 0L in
  for b = n - 1 downto 0 do
    v :=
      Int64.logor
        (Int64.shift_left !v 8)
        (Int64.of_int (Char.code (Bigarray.Array1.get t.bytes (addr + b))))
  done;
  Width.trunc width !v

(** [write t ~width addr v] stores a [width]-bit little-endian value. *)
let write t ~width addr v =
  check t addr width;
  let n = Int.max 1 (width / 8) in
  if t.j_on then journal_record t addr n;
  for b = 0 to n - 1 do
    Bigarray.Array1.set t.bytes (addr + b)
      (Char.chr
         (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * b)) 0xFFL)))
  done

(* Unboxed accessors for the machine simulator's 8/16/32-bit traffic:
   plain-int reads and writes keep its load/store path free of Int64
   allocation.  The per-width ones are inlined into the simulator's
   fused loads and stores, so the bounds check and the access compile
   to a few instructions there; only a fault or an armed journal calls
   out.  Wider (or odd-width) accesses fall back to the Int64 versions
   above; values read are unsigned, exactly like [read]. *)

let[@inline] read_u8 t addr =
  check_n t addr 1 8;
  Char.code (Bigarray.Array1.unsafe_get t.bytes addr)

let[@inline] read_u16 t addr =
  check_n t addr 2 16;
  get_u16le t.bytes addr

let[@inline] read_u32 t addr =
  check_n t addr 4 32;
  get_u16le t.bytes addr lor (get_u16le t.bytes (addr + 2) lsl 16)

let[@inline] write_u8 t addr v =
  check_n t addr 1 8;
  if t.j_on then journal_record t addr 1;
  Bigarray.Array1.unsafe_set t.bytes addr (Char.unsafe_chr (v land 0xFF))

let[@inline] write_u16 t addr v =
  check_n t addr 2 16;
  if t.j_on then journal_record t addr 2;
  set_u16le t.bytes addr (v land 0xFFFF)

let[@inline] write_u32 t addr v =
  check_n t addr 4 32;
  if t.j_on then journal_record t addr 4;
  set_u16le t.bytes addr (v land 0xFFFF);
  set_u16le t.bytes (addr + 2) ((v lsr 16) land 0xFFFF)

let read_int t ~width addr =
  match width with
  | 8 -> read_u8 t addr
  | 16 -> read_u16 t addr
  | 32 -> read_u32 t addr
  | _ -> Int64.to_int (read t ~width addr)

let write_int t ~width addr v =
  match width with
  | 8 -> write_u8 t addr v
  | 16 -> write_u16 t addr v
  | 32 -> write_u32 t addr v
  | _ -> write t ~width addr (Int64.of_int v) (* [write] journals *)

(** Convenience accessors used by workload input generators, which call
    them once per element: the lookups allocate nothing. *)

let rec global_named name = function
  | [] -> raise (Fault ("unknown global " ^ name))
  | (g : Ir.global) :: rest ->
      if String.equal g.gname name then g else global_named name rest

let set_global t (m : Ir.modul) ~name ~index v =
  let width = (global_named name m.globals).elem_width in
  let addr = addr_of t name + (index * Int.max 1 (width / 8)) in
  (* up to 32 bits, the low bits of a plain int carry the element *)
  if width <= 32 then write_int t ~width addr (Int64.to_int v)
  else write t ~width addr v

let get_global t (m : Ir.modul) ~name ~index =
  let width = (global_named name m.globals).elem_width in
  read t ~width (addr_of t name + (index * Int.max 1 (width / 8)))
