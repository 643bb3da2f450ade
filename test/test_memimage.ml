open Bs_ir
open Bs_interp
open Bs_workloads

(* Memory images.

   Covered here:
   - a new image reads zero everywhere its predecessors wrote, and two
     live images (also on different domains) never share storage;
   - images are released when dropped: more create-and-drop cycles than
     the kernel's default limit on live mappings (vm.max_map_count,
     65,530) all succeed and leave the virtual size where it was; one
     that cannot be mapped raises [Fault];
   - every workload's input set-up writes exactly the bytes pinned below;
   - set_global/get_global round-trip every element width. *)

let modul globals = { Ir.funcs = []; globals }

let global gname elem_width count =
  { Ir.gname; elem_width; count; ginit = [||] }

(* A first page of globals and a little more. *)
let page_module = modul [ global "page" 8 4096; global "rest" 32 64 ]

let byte mem a = Memimage.read_int mem ~width:8 a
let poke mem a = Memimage.write_int mem ~width:8 a 0xFF

let test_zeroed_and_private () =
  let size = 8 * 1024 * 1024 in
  let probes =
    (size / 2)
    :: List.init 4096 (fun k -> Memimage.globals_base + k)
    @ List.init 64 (fun k -> size - 64 + k)
  in
  let check_all what mem v =
    Alcotest.(check (list int)) what
      (List.map (fun _ -> v) probes)
      (List.map (byte mem) probes)
  in
  let fill_and_drop () =
    let a = Memimage.create page_module in
    List.iter (poke a) probes;
    check_all "A" a 0xFF
  in
  fill_and_drop ();
  Gc.full_major ();
  let b = Memimage.create page_module in
  check_all "B" b 0;
  (* two live images: each keeps its own writes *)
  let c = Memimage.create page_module in
  List.iter (poke c) probes;
  check_all "B beside C" b 0;
  Memimage.write_int b ~width:32 Memimage.globals_base 0x12345678;
  Alcotest.(check int) "C keeps its byte" 0xFF (byte c Memimage.globals_base);
  Alcotest.(check int) "B keeps its word" 0x12345678
    (Memimage.read_int b ~width:32 Memimage.globals_base)

(* Each domain keeps its last few images live and checks every one of
   them after each new image: a shared buffer would show another image's
   tag. *)
let test_domains_never_cross () =
  let per_domain d () =
    let live = Array.make 4 None in
    let g = Memimage.globals_base in
    let addrs = [ g; g + 4097; 65000 ] in
    let tag i = (d lsl 20) lor i in
    let bad = ref 0 in
    for i = 0 to 999 do
      let m = Memimage.create ~size:65536 page_module in
      List.iter
        (fun a -> if Memimage.read_int m ~width:32 a <> 0 then incr bad)
        addrs;
      List.iter (fun a -> Memimage.write_int m ~width:32 a (tag i)) addrs;
      live.(i mod 4) <- Some (i, m);
      Array.iter
        (function
          | Some (j, m) ->
              List.iter
                (fun a ->
                  if Memimage.read_int m ~width:32 a <> tag j then incr bad)
                addrs
          | None -> ())
        live
    done;
    !bad
  in
  let ds = Array.init 4 (fun d -> Domain.spawn (per_domain d)) in
  Array.iteri
    (fun d dom ->
      Alcotest.(check int) (Printf.sprintf "domain %d mismatches" d) 0
        (Domain.join dom))
    ds

(* The process's virtual size in kB, where /proc has it. *)
let vm_size_kb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> None
  | status ->
      List.find_map
        (fun line -> Scanf.sscanf_opt line "VmSize: %d kB" Fun.id)
        (String.split_on_char '\n' status)

(* Unreleased, 70,000 images would exceed the map count or, where the
   kernel merges adjacent mappings, add 8 MiB each to the virtual size. *)
let test_mappings_released () =
  let before = vm_size_kb () in
  for _ = 1 to 70_000 do
    let m = Memimage.create page_module in
    Memimage.write_int m ~width:8 Memimage.globals_base 1
  done;
  Gc.full_major ();
  match (before, vm_size_kb ()) with
  | Some b, Some a ->
      Alcotest.(check bool)
        (Printf.sprintf "virtual size grew %d kB, under 1 GiB" (a - b))
        true
        (a - b < 1 lsl 20)
  | _ -> ()

(* No address space holds 2^61 bytes: the mapping fails, and the
   system's reason arrives as a [Fault]. *)
let test_unmappable () =
  match Memimage.create ~size:(1 lsl 61) page_module with
  | _ -> Alcotest.fail "a 2^61-byte image was mapped"
  | exception Memimage.Fault msg ->
      Alcotest.(check bool) ("says why: " ^ msg) true
        (Str_exists.contains msg "cannot map a memory image: ")

(* MD5 of each workload's set-up image over [globals_base, globals_end):
   the initialisers plus every set_global its input generator makes. *)
let pinned =
  [ ("CRC32", "train", "a032f698382e48b06e75b659f6ef13f9");
    ("CRC32", "test", "128679c7d676bd146990cde0bf4f31b4");
    ("CRC32", "alt", "f8c9c9aaa70e6a4d1195f86f011831de");
    ("FFT", "train", "e0244da234b14a1c553cddf093046b56");
    ("FFT", "test", "cf72a7708082f80460f66f9f4f231f22");
    ("FFT", "alt", "f37d6997b69f5a04f8f684691de752d1");
    ("basicmath", "train", "d8464e4e88962ef27f599227363c8942");
    ("basicmath", "test", "ef47796048ab9aa604d73f5cf4988e5c");
    ("basicmath", "alt", "b2386afdeeb5587e2af6f8fecde54ab1");
    ("bitcount", "train", "348a9791dc41b89796ec3808b5b5262f");
    ("bitcount", "test", "348a9791dc41b89796ec3808b5b5262f");
    ("bitcount", "alt", "348a9791dc41b89796ec3808b5b5262f");
    ("blowfish", "train", "07117cb128da4c6bbbb2f057471448fd");
    ("blowfish", "test", "5e5d0391732b5968e6f57fc4ddc80218");
    ("blowfish", "alt", "7f33e125134a28183500670812f9e1e4");
    ("dijkstra", "train", "efd1c5443118597dc9bf21fd2aadad41");
    ("dijkstra", "test", "1fecb8f96f00698380f8a97f78729837");
    ("dijkstra", "alt", "bbd5f5fc9a2852614644658db546230f");
    ("dijkstra", "narrow-train", "803631050e3b8d251fd314fb475867bc");
    ("dijkstra", "narrow-test", "39e0d9d9b57e61a99e8d644f1a2a6a3d");
    ("dijkstra", "narrow-alt", "b4a8cdb5975347fefd2c17e335f878de");
    ("patricia", "train", "74ae3592c0427f804e8fa9f9256869d0");
    ("patricia", "test", "67c4cf02091f3c4d32e6545275c092b0");
    ("patricia", "alt", "7f45030788c52dbb638dec686540ca35");
    ("qsort", "train", "8b5a46e29ef84932f1694fb88bceb7a7");
    ("qsort", "test", "a3b1efefb63be45088e9ea97275f8dcb");
    ("qsort", "alt", "c5fd74d8a557a078e642f824be23d03a");
    ("rijndael", "train", "4b6103aae5d88ad3f26acba83174ec72");
    ("rijndael", "test", "b3b69fc5306fbac60a21d824d3fd2c6f");
    ("rijndael", "alt", "ca5aa97bce1d49cedbcb4c0e033c9e57");
    ("sha", "train", "545817e0f722f9d792042b0b0c260b94");
    ("sha", "test", "2ecfaea70e888924f172aee94390ce15");
    ("sha", "alt", "7215a9d5fd16110d9810b794a0563aac");
    ("stringsearch", "train", "28710be6e4ad7214a4baa6c5dc26be8f");
    ("stringsearch", "test", "e56fc6f3c81addd6871380095bbcf6a6");
    ("stringsearch", "alt", "49281b794ae26face36828218f09a264");
    ("stringsearch", "narrow-train", "28710be6e4ad7214a4baa6c5dc26be8f");
    ("stringsearch", "narrow-test", "e56fc6f3c81addd6871380095bbcf6a6");
    ("stringsearch", "narrow-alt", "49281b794ae26face36828218f09a264");
    ("susan-edges", "train", "da4428e2a310de9b4703ba750caba04a");
    ("susan-edges", "test", "46e2c76eeb3da30268208c5fdf42018c");
    ("susan-edges", "alt", "eb381de61cb41fd8d60ccbd7c78b8d90");
    ("susan-corners", "train", "da4428e2a310de9b4703ba750caba04a");
    ("susan-corners", "test", "46e2c76eeb3da30268208c5fdf42018c");
    ("susan-corners", "alt", "eb381de61cb41fd8d60ccbd7c78b8d90");
    ("susan-smoothing", "train", "da4428e2a310de9b4703ba750caba04a");
    ("susan-smoothing", "test", "46e2c76eeb3da30268208c5fdf42018c");
    ("susan-smoothing", "alt", "eb381de61cb41fd8d60ccbd7c78b8d90") ]

let setup_digest m (input : Workload.input) =
  let mem = Memimage.create m in
  input.Workload.setup m mem;
  let lo = Memimage.globals_base in
  Digest.to_hex
    (Digest.bytes
       (Bytes.init (mem.Memimage.globals_end - lo) (fun i ->
            Char.chr (byte mem (lo + i)))))

let test_inputs_pinned () =
  let seen =
    List.concat_map
      (fun (w : Workload.t) ->
        let sources =
          ("", w.source)
          :: (match w.narrow_source with
             | Some n -> [ ("narrow-", n) ]
             | None -> [])
        in
        List.concat_map
          (fun (prefix, source) ->
            let m = Bs_frontend.Lower.compile source in
            List.map
              (fun (name, input) ->
                (w.name, prefix ^ name, setup_digest m input))
              [ ("train", w.train); ("test", w.test); ("alt", w.alt) ])
          sources)
      Registry.all
  in
  Alcotest.(check (list (triple string string string)))
    "set-up image digests" pinned seen

let test_global_round_trip () =
  let widths = [ 8; 16; 32; 64 ] in
  let name w = Printf.sprintf "g%d" w in
  let m = modul (List.map (fun w -> global (name w) w 3) widths) in
  let mem = Memimage.create ~size:65536 m in
  let ones w = if w = 64 then -1L else Int64.pred (Int64.shift_left 1L w) in
  List.iter
    (fun w ->
      let get index = Memimage.get_global mem m ~name:(name w) ~index in
      let set index v = Memimage.set_global mem m ~name:(name w) ~index v in
      let values =
        (* 0xFFFFFFFFFFFFFFFF: a byte loop over a 63-bit int would store
           0x7F in the top byte; 0x7FFF…/0x8000… differ in bits 62/63 *)
        [ ones w; 0x5AL; Int64.logand 0x0123456789ABCDEFL (ones w) ]
        @ (if w = 64 then [ Int64.max_int; Int64.min_int ] else [])
      in
      (* all-ones neighbours: a store one byte too wide or too early
         clears some of their bits *)
      set 0 (ones w);
      set 2 (ones w);
      List.iter
        (fun v ->
          set 1 v;
          Alcotest.(check int64) (Printf.sprintf "u%d element" w) v (get 1);
          Alcotest.(check int64) (Printf.sprintf "u%d left neighbour" w)
            (ones w) (get 0);
          Alcotest.(check int64) (Printf.sprintf "u%d right neighbour" w)
            (ones w) (get 2))
        values;
      if w < 64 then begin
        (* bits above the element width are dropped *)
        set 1 (Int64.shift_left 1L w);
        Alcotest.(check int64) (Printf.sprintf "u%d truncates" w) 0L (get 1)
      end)
    widths;
  let unknown f =
    match f () with
    | _ -> Alcotest.fail "an unknown global resolved"
    | exception Memimage.Fault _ -> ()
  in
  unknown (fun () -> Memimage.set_global mem m ~name:"nope" ~index:0 1L);
  unknown (fun () -> ignore (Memimage.get_global mem m ~name:"nope" ~index:0))

let suite =
  [ Alcotest.test_case "images start zeroed and never share storage" `Quick
      test_zeroed_and_private;
    Alcotest.test_case "images on 4 domains never cross-talk" `Quick
      test_domains_never_cross;
    Alcotest.test_case "70,000 images are made and released" `Slow
      test_mappings_released;
    Alcotest.test_case "an image that cannot be mapped raises Fault" `Quick
      test_unmappable;
    Alcotest.test_case "every workload's input image is pinned" `Quick
      test_inputs_pinned;
    Alcotest.test_case "set_global/get_global round-trip u8..u64" `Quick
      test_global_round_trip ]
