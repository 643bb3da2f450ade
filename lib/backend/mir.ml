open Bs_isa

(* Speculative Machine IR (SMIR, §3.1.3): the virtual-register machine
   representation between instruction selection and register allocation.

   Virtual registers carry a width (8 for slice candidates, 32 otherwise);
   speculative regions are propagated from SIR so the register allocator
   can apply equation (2)'s predecessor relation. *)

type vreg = int

type vop2 = Vr of vreg | Vi of int64

type mop =
  | Mmov of vreg * vreg                       (* same-width move *)
  | Mmovi of vreg * int64
  | Malu of Isa.aluop * vreg * vreg * vop2
  | Mmul of vreg * vreg * vreg
  | Mdiv of Isa.signedness * vreg * vreg * vreg
  | Mcmp of vreg * vop2                       (* sets flags; width from vreg *)
  | Mcset of Isa.cond * vreg
  | Mb of int                                 (* MIR block id *)
  | Mbc of Isa.cond * int * int               (* taken, fallthrough *)
  | Mcall of string * vreg list * vreg option
  | Mret of vreg option
  | Mload of Isa.width * Isa.signedness * vreg * vreg * int
  | Mloadspec of vreg * vreg * int            (* Table 1 speculative load *)
  | Mstore of Isa.width * vreg * vreg * int
  (* slice-indexed forms: Mem[base + slice] (Table 1's Bm index operand) *)
  | Mload8x of vreg * vreg * vreg             (* dst8 := Mem8[base + idx8] *)
  | Mloadspecx of vreg * vreg * vreg          (* dst8 := Mem32[base + idx8] *)
  | Mstore8x of vreg * vreg * vreg            (* Mem8[base + idx8] := src8 *)
  | Mext of Isa.signedness * vreg * vreg      (* 8-bit vreg -> 32-bit vreg *)
  | Mtrunc_spec of vreg * vreg                (* speculative truncate *)
  | Mtrunc_exact of vreg * vreg               (* exact slice move *)
  | Muxt of Isa.width * vreg * vreg           (* mask 32-bit value to 8/16 *)
  | Msxt of Isa.width * vreg * vreg
  | Mgaddr of vreg * string
  | Mframeaddr of vreg * int                  (* salloc slot id *)
  | Margload of vreg * int                    (* k-th incoming argument *)

(* Source attribution for speculative instructions: the IR variable
   (and its line) whose squeeze introduced the speculation.  Carried
   from isel through assembly into [Asm.program.srcmap] so the
   simulator can charge each misspeculation back to its source. *)
type site = { s_fn : string; s_var : string; s_line : int }

type minstr = {
  mutable mop : mop;
  mutable speculative : bool;   (* can trigger misspeculation *)
  mutable prov : Isa.provenance;
  mutable msite : site option;  (* attribution for speculative ops *)
}

type mblock = {
  mbid : int;
  mutable mphis : (vreg * (int * vop2) list) list;  (* parallel phis *)
  mutable mins : minstr list;                        (* terminator last *)
  mutable in_region : int option;                    (* region id *)
  mutable handler_of : int option;                   (* region id *)
  mutable is_orig : bool;  (* block belongs to CFG_orig (fallback code) *)
}

type mfunc = {
  mname : string;
  nargs : int;
  mutable mblocks : mblock list;
  vwidth : (vreg, int) Hashtbl.t;              (* vreg -> 8 or 32 *)
  mutable next_vreg : int;
  mutable sallocs : (int * int) list;          (* slot id, bytes *)
  mutable mregions : (int * int list * int) list;  (* region id, blocks, handler *)
}

let mk_instr ?(spec = false) ?(prov = Isa.PNormal) ?site mop =
  { mop; speculative = spec; prov; msite = site }

let fresh_vreg (f : mfunc) ~width =
  let v = f.next_vreg in
  f.next_vreg <- v + 1;
  Hashtbl.replace f.vwidth v width;
  v

let width_of (f : mfunc) v =
  match Hashtbl.find_opt f.vwidth v with Some w -> w | None -> 32

let terminator (b : mblock) =
  match List.rev b.mins with
  | t :: _ -> t
  | [] -> invalid_arg "Mir.terminator: empty block"

let succs (b : mblock) =
  match (terminator b).mop with
  | Mb t -> [ t ]
  | Mbc (_, t, e) -> if t = e then [ t ] else [ t; e ]
  | Mret _ -> []
  | _ -> []

(** Defs and uses of an instruction, for liveness and allocation. *)
let defs_uses (i : minstr) : vreg list * vreg list =
  let of_vop2 = function Vr v -> [ v ] | Vi _ -> [] in
  match i.mop with
  | Mmov (d, s) -> ([ d ], [ s ])
  | Mmovi (d, _) -> ([ d ], [])
  | Malu (_, d, n, o) -> ([ d ], n :: of_vop2 o)
  | Mmul (d, n, m) | Mdiv (_, d, n, m) -> ([ d ], [ n; m ])
  | Mcmp (n, o) -> ([], n :: of_vop2 o)
  | Mcset (_, d) -> ([ d ], [])
  | Mb _ -> ([], [])
  | Mbc _ -> ([], [])
  | Mcall (_, args, ret) ->
      ((match ret with Some r -> [ r ] | None -> []), args)
  | Mret v -> ([], match v with Some v -> [ v ] | None -> [])
  | Mload (_, _, d, a, _) -> ([ d ], [ a ])
  | Mloadspec (d, a, _) -> ([ d ], [ a ])
  | Mstore (_, s, a, _) -> ([], [ s; a ])
  | Mload8x (d, a, x) | Mloadspecx (d, a, x) -> ([ d ], [ a; x ])
  | Mstore8x (s, a, x) -> ([], [ s; a; x ])
  | Mext (_, d, s)
  | Mtrunc_spec (d, s)
  | Mtrunc_exact (d, s)
  | Muxt (_, d, s)
  | Msxt (_, d, s) -> ([ d ], [ s ])
  | Mgaddr (d, _) | Mframeaddr (d, _) | Margload (d, _) -> ([ d ], [])

let to_string (f : mfunc) (i : minstr) =
  let v r = Printf.sprintf "v%d:%d" r (width_of f r) in
  let o = function Vr r -> v r | Vi c -> Printf.sprintf "#%Ld" c in
  let s =
    match i.mop with
    | Mmov (d, x) -> Printf.sprintf "mov %s, %s" (v d) (v x)
    | Mmovi (d, c) -> Printf.sprintf "movi %s, #%Ld" (v d) c
    | Malu (op, d, n, x) ->
        Printf.sprintf "%s %s, %s, %s" (Isa.aluop_name op) (v d) (v n) (o x)
    | Mmul (d, n, m) -> Printf.sprintf "mul %s, %s, %s" (v d) (v n) (v m)
    | Mdiv (_, d, n, m) -> Printf.sprintf "div %s, %s, %s" (v d) (v n) (v m)
    | Mcmp (n, x) -> Printf.sprintf "cmp %s, %s" (v n) (o x)
    | Mcset (c, d) -> Printf.sprintf "cset.%s %s" (Isa.cond_name c) (v d)
    | Mb t -> Printf.sprintf "b mb%d" t
    | Mbc (c, t, e) -> Printf.sprintf "b.%s mb%d else mb%d" (Isa.cond_name c) t e
    | Mcall (f, args, ret) ->
        Printf.sprintf "call @%s(%s)%s" f
          (String.concat ", " (List.map v args))
          (match ret with Some r -> " -> " ^ v r | None -> "")
    | Mret (Some x) -> Printf.sprintf "ret %s" (v x)
    | Mret None -> "ret"
    | Mload (w, _, d, a, off) ->
        Printf.sprintf "ldr%s %s, [%s, #%d]" (Isa.width_suffix w) (v d) (v a) off
    | Mloadspec (d, a, off) -> Printf.sprintf "ldrspec %s, [%s, #%d]" (v d) (v a) off
    | Mstore (w, x, a, off) ->
        Printf.sprintf "str%s %s, [%s, #%d]" (Isa.width_suffix w) (v x) (v a) off
    | Mload8x (d, a, x) -> Printf.sprintf "ldrb %s, [%s, %s]" (v d) (v a) (v x)
    | Mloadspecx (d, a, x) ->
        Printf.sprintf "ldrspec %s, [%s, %s]" (v d) (v a) (v x)
    | Mstore8x (sv, a, x) -> Printf.sprintf "strb %s, [%s, %s]" (v sv) (v a) (v x)
    | Mext (Isa.Unsigned, d, x) -> Printf.sprintf "zext %s, %s" (v d) (v x)
    | Mext (Isa.Signed, d, x) -> Printf.sprintf "sext %s, %s" (v d) (v x)
    | Mtrunc_spec (d, x) -> Printf.sprintf "truncspec %s, %s" (v d) (v x)
    | Mtrunc_exact (d, x) -> Printf.sprintf "trunc %s, %s" (v d) (v x)
    | Muxt (w, d, x) -> Printf.sprintf "uxt%s %s, %s" (Isa.width_suffix w) (v d) (v x)
    | Msxt (w, d, x) -> Printf.sprintf "sxt%s %s, %s" (Isa.width_suffix w) (v d) (v x)
    | Mgaddr (d, g) -> Printf.sprintf "adr %s, @%s" (v d) g
    | Mframeaddr (d, slot) -> Printf.sprintf "frameaddr %s, slot%d" (v d) slot
    | Margload (d, k) -> Printf.sprintf "arg %s, #%d" (v d) k
  in
  if i.speculative then s ^ " !spec" else s

let func_to_string (f : mfunc) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "mfunc @%s(%d args)\n" f.mname f.nargs);
  List.iter
    (fun b ->
      let tag =
        match (b.in_region, b.handler_of) with
        | Some r, _ -> Printf.sprintf " region %d" r
        | _, Some r -> Printf.sprintf " handler %d" r
        | _ -> ""
      in
      Buffer.add_string buf (Printf.sprintf "mb%d:%s\n" b.mbid tag);
      List.iter
        (fun (d, incoming) ->
          Buffer.add_string buf
            (Printf.sprintf "  v%d := phi %s\n" d
               (String.concat ", "
                  (List.map
                     (fun (p, x) ->
                       Printf.sprintf "[mb%d: %s]" p
                         (match x with
                         | Vr r -> "v" ^ string_of_int r
                         | Vi c -> "#" ^ Int64.to_string c))
                     incoming))))
        b.mphis;
      List.iter
        (fun i -> Buffer.add_string buf ("  " ^ to_string f i ^ "\n"))
        b.mins)
    f.mblocks;
  Buffer.contents buf
