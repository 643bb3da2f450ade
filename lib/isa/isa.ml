(* BSARM: a 32-bit ARM-like load/store ISA, extended with the BITSPEC
   speculative byte-slice operations of Table 1.

   Registers R0..R15 with R13 = SP, R14 = LR, R15 = PC (PC is implicit —
   no instruction takes it as an operand).  The BITSPEC extension adds
   8-bit slice addressing of every GPR: slice (r, k) is byte k of Rr.
   The Δ special register holds the program-counter displacement applied
   on misspeculation (§3.3.4); CLASSIC mode disables the remapped slice
   opcodes for pre-compiled code (§3.4). *)

type reg = int

let sp = 13
let lr = 14
let pc = 15
let num_regs = 16

(** An 8-bit slice of a general-purpose register: byte [sl_byte] (0..3) of
    [sl_reg]. *)
type slice = { sl_reg : reg; sl_byte : int }

type cond =
  | CEq | CNe
  | CUlt | CUle | CUgt | CUge
  | CSlt | CSle | CSgt | CSge

type aluop = OpAdd | OpSub | OpAnd | OpOrr | OpEor | OpLsl | OpLsr | OpAsr

(** Slice ALU operations — the subset with speculative hardware
    (Table 1). *)
type baluop = BAdd | BSub | BAnd | BOrr | BEor

type width = W8 | W16 | W32

type signedness = Signed | Unsigned

type mode = Classic | Bitspec

(** Flexible second operand: register or immediate. *)
type op2 = Reg of reg | Imm of int

(** Slice second operand: slice or 4-bit immediate (Table 1's imm4; loads
    and stores take imm8). *)
type bop2 = Sl of slice | BImm of int

(** Memory index operand of the slice load/store forms:
    Mem[Rn + (Bm or imm8)] (Table 1). *)
type bindex = BOff of int | BIdx of slice

type insn =
  (* --- conventional 32-bit ISA ------------------------------------- *)
  | MOV of reg * reg
  | MOVW of reg * int                  (* Rd := imm16 (low half, zeroed top) *)
  | MOVT of reg * int                  (* Rd(high16) := imm16 *)
  | ALU of aluop * reg * reg * op2     (* Rd := Rn op op2 *)
  | MUL of reg * reg * reg
  | DIV of signedness * reg * reg * reg
  | CMP of reg * op2                   (* sets N/Z/C/V *)
  | CSET of cond * reg                 (* Rd := cond ? 1 : 0 *)
  | B of int                           (* absolute instruction index *)
  | BC of cond * int
  | BL of int                          (* call: LR := return, PC := target *)
  | BX_LR                              (* return *)
  | LDR of width * signedness * reg * reg * int  (* Rd := Mem[Rn + imm] *)
  | STR of width * reg * reg * int               (* Mem[Rn + imm] := Rd *)
  | SXT of width * reg * reg           (* sign-extend low 8/16 bits *)
  | UXT of width * reg * reg
  (* --- BITSPEC slice extension (Table 1) ---------------------------- *)
  | BALU of baluop * slice * slice * bop2   (* Bd := Bn op bop2 *)
  | BCMPS of slice * bop2                   (* unsigned 8-bit compare *)
  | BLDRS of slice * reg * bindex           (* speculative: Bd := Mem32[Rn+x] *)
  | BLDRB of slice * reg * bindex           (* Bd := Mem8[Rn+x] *)
  | BSTRB of slice * reg * bindex           (* Mem8[Rn+x] := Bd *)
  | BEXT of signedness * reg * slice        (* Rd := extend(Bn) *)
  | BTRN of slice * reg                     (* speculative truncate *)
  | BMOV of slice * slice                   (* slice move *)
  | BMOVI of slice * int                    (* Bd := imm8 *)
  (* --- control ------------------------------------------------------ *)
  | SETDELTA of int                    (* Δ := imm (instruction units) *)
  | SETMODE of mode
  | NOP
  | HALT

(** Provenance tags used by the simulator's activity counters (Figure 10
    distinguishes spill loads/stores and register-allocator copies). *)
type provenance =
  | PNormal
  | PSpillLoad
  | PSpillStore
  | PCopy
  | PSkeleton           (* skeleton-area branch (§3.3.4) *)
  | PPrologue

(** Does this instruction exist only in BITSPEC mode? *)
let is_slice_insn = function
  | BALU _ | BCMPS _ | BLDRS _ | BLDRB _ | BSTRB _ | BEXT _ | BTRN _
  | BMOV _ | BMOVI _ -> true
  | _ -> false

(** Can the instruction misspeculate (Table 1's Misspec? column)? *)
let can_misspeculate = function
  | BALU ((BAdd | BSub), _, _, _) -> true
  | BLDRS _ -> true
  | BTRN _ -> true
  | _ -> false

(** The register bytes an instruction reads, as [(reg, bytes)] pairs: bit
    k of [bytes] stands for byte k.  A slice operand reads its own byte;
    a 32-bit operand all four, except where only its low bytes can reach
    the result (a narrow store or extension, MOVT's kept low half).
    Writes are not reads: a slice write keeps the other bytes unseen. *)
let read_bytes (i : insn) : (reg * int) list =
  let full r = (r, 0xF) and byte s = (s.sl_reg, 1 lsl s.sl_byte) in
  let low w r = (r, match w with W8 -> 0x1 | W16 -> 0x3 | W32 -> 0xF) in
  let op2 = function Reg m -> [ full m ] | Imm _ -> [] in
  let bop2 = function Sl s -> [ byte s ] | BImm _ -> [] in
  let bidx = function BIdx s -> [ byte s ] | BOff _ -> [] in
  match i with
  | MOV (_, s) | BTRN (_, s) -> [ full s ]
  | MOVT (d, _) -> [ (d, 0x3) ]
  | ALU (_, _, n, o) | CMP (n, o) -> full n :: op2 o
  | MUL (_, n, m) | DIV (_, _, n, m) -> [ full n; full m ]
  | BX_LR -> [ full lr ]
  | LDR (_, _, _, n, _) -> [ full n ]
  | STR (w, s, n, _) -> [ low w s; full n ]
  | SXT (w, _, s) | UXT (w, _, s) -> [ low w s ]
  | BALU (_, _, n, o) | BCMPS (n, o) -> byte n :: bop2 o
  | BLDRS (_, n, x) | BLDRB (_, n, x) -> full n :: bidx x
  | BSTRB (s, n, x) -> byte s :: full n :: bidx x
  | BEXT (_, _, s) | BMOV (_, s) -> [ byte s ]
  | MOVW _ | CSET _ | B _ | BC _ | BL _ | BMOVI _ | SETDELTA _ | SETMODE _
  | NOP | HALT -> []

let cond_name = function
  | CEq -> "eq" | CNe -> "ne"
  | CUlt -> "lo" | CUle -> "ls" | CUgt -> "hi" | CUge -> "hs"
  | CSlt -> "lt" | CSle -> "le" | CSgt -> "gt" | CSge -> "ge"

let reg_name r =
  if r = sp then "sp" else if r = lr then "lr" else if r = pc then "pc"
  else "r" ^ string_of_int r

let slice_name s = Printf.sprintf "%s.b%d" (reg_name s.sl_reg) s.sl_byte

let op2_name = function Reg r -> reg_name r | Imm i -> "#" ^ string_of_int i

let bop2_name = function Sl s -> slice_name s | BImm i -> "#" ^ string_of_int i

let bindex_name = function
  | BOff i -> "#" ^ string_of_int i
  | BIdx s -> slice_name s

let aluop_name = function
  | OpAdd -> "add" | OpSub -> "sub" | OpAnd -> "and" | OpOrr -> "orr"
  | OpEor -> "eor" | OpLsl -> "lsl" | OpLsr -> "lsr" | OpAsr -> "asr"

let baluop_name = function
  | BAdd -> "badd" | BSub -> "bsub" | BAnd -> "band" | BOrr -> "borr"
  | BEor -> "beor"

let width_suffix = function W8 -> "b" | W16 -> "h" | W32 -> ""

let to_string (i : insn) =
  match i with
  | MOV (d, s) -> Printf.sprintf "mov %s, %s" (reg_name d) (reg_name s)
  | MOVW (d, v) -> Printf.sprintf "movw %s, #%d" (reg_name d) v
  | MOVT (d, v) -> Printf.sprintf "movt %s, #%d" (reg_name d) v
  | ALU (op, d, n, o) ->
      Printf.sprintf "%s %s, %s, %s" (aluop_name op) (reg_name d) (reg_name n)
        (op2_name o)
  | MUL (d, n, m) ->
      Printf.sprintf "mul %s, %s, %s" (reg_name d) (reg_name n) (reg_name m)
  | DIV (Signed, d, n, m) ->
      Printf.sprintf "sdiv %s, %s, %s" (reg_name d) (reg_name n) (reg_name m)
  | DIV (Unsigned, d, n, m) ->
      Printf.sprintf "udiv %s, %s, %s" (reg_name d) (reg_name n) (reg_name m)
  | CMP (n, o) -> Printf.sprintf "cmp %s, %s" (reg_name n) (op2_name o)
  | CSET (c, d) -> Printf.sprintf "cset.%s %s" (cond_name c) (reg_name d)
  | B t -> Printf.sprintf "b %d" t
  | BC (c, t) -> Printf.sprintf "b.%s %d" (cond_name c) t
  | BL t -> Printf.sprintf "bl %d" t
  | BX_LR -> "bx lr"
  | LDR (w, Signed, d, n, off) ->
      Printf.sprintf "ldrs%s %s, [%s, #%d]" (width_suffix w) (reg_name d)
        (reg_name n) off
  | LDR (w, Unsigned, d, n, off) ->
      Printf.sprintf "ldr%s %s, [%s, #%d]" (width_suffix w) (reg_name d)
        (reg_name n) off
  | STR (w, s, n, off) ->
      Printf.sprintf "str%s %s, [%s, #%d]" (width_suffix w) (reg_name s)
        (reg_name n) off
  | SXT (w, d, s) ->
      Printf.sprintf "sxt%s %s, %s" (width_suffix w) (reg_name d) (reg_name s)
  | UXT (w, d, s) ->
      Printf.sprintf "uxt%s %s, %s" (width_suffix w) (reg_name d) (reg_name s)
  | BALU (op, d, n, o) ->
      Printf.sprintf "%s %s, %s, %s" (baluop_name op) (slice_name d)
        (slice_name n) (bop2_name o)
  | BCMPS (n, o) -> Printf.sprintf "bcmp %s, %s" (slice_name n) (bop2_name o)
  | BLDRS (d, n, x) ->
      Printf.sprintf "bldrs %s, [%s, %s]" (slice_name d) (reg_name n) (bindex_name x)
  | BLDRB (d, n, x) ->
      Printf.sprintf "bldrb %s, [%s, %s]" (slice_name d) (reg_name n) (bindex_name x)
  | BSTRB (s, n, x) ->
      Printf.sprintf "bstrb %s, [%s, %s]" (slice_name s) (reg_name n) (bindex_name x)
  | BEXT (Signed, d, s) -> Printf.sprintf "bsext %s, %s" (reg_name d) (slice_name s)
  | BEXT (Unsigned, d, s) -> Printf.sprintf "bzext %s, %s" (reg_name d) (slice_name s)
  | BTRN (d, s) -> Printf.sprintf "btrn %s, %s" (slice_name d) (reg_name s)
  | BMOV (d, s) -> Printf.sprintf "bmov %s, %s" (slice_name d) (slice_name s)
  | BMOVI (d, v) -> Printf.sprintf "bmovi %s, #%d" (slice_name d) v
  | SETDELTA v -> Printf.sprintf "setdelta #%d" v
  | SETMODE Classic -> "setmode classic"
  | SETMODE Bitspec -> "setmode bitspec"
  | NOP -> "nop"
  | HALT -> "halt"
