(* Dominator computation via the Cooper-Harvey-Kennedy iterative algorithm.
   Handlers participate through the SIR predecessor relation so that the
   verifier can check SSA dominance inside handlers too.

   Blocks are numbered by their reverse-postorder position, so the
   iteration runs over arrays.  A depth-first walk of the finished tree
   then gives every block the interval of preorder numbers its subtree
   spans: [a] dominates [b] iff [b]'s number lies in [a]'s interval, a
   test whose cost does not grow with the tree's depth. *)

type t = {
  order : int array;             (* reverse postorder of block ids *)
  index : (int, int) Hashtbl.t;  (* block id -> RPO index *)
  idoms : int array;             (* RPO index -> idom's RPO index; -1: none *)
  pre : int array;               (* RPO index -> tree preorder number; -1: none *)
  last : int array;              (* RPO index -> last preorder number below it *)
}

let compute ?preds ?order (f : Ir.func) =
  let preds = match preds with Some p -> p | None -> Ir.preds_sir f in
  let order =
    Array.of_list
      (match order with Some o -> o | None -> Ir.reverse_postorder f)
  in
  let n = Array.length order in
  let index = Hashtbl.create (2 * n + 1) in
  Array.iteri (fun i bid -> Hashtbl.replace index bid i) order;
  (* predecessors by RPO index, in the relation's order; a block outside
     the order never gets a dominator, so it never counts as processed *)
  let preds_at =
    Array.map
      (fun bid ->
        match Hashtbl.find_opt preds bid with
        | Some ps -> Array.of_list (List.filter_map (Hashtbl.find_opt index) ps)
        | None -> [||])
      order
  in
  let idoms = Array.make n (-1) in
  (* the DFS that numbered [order] started at the function's entry *)
  if n > 0 then begin
    idoms.(0) <- 0;
    let rec intersect b1 b2 =
      if b1 = b2 then b1
      else if b1 > b2 then intersect idoms.(b1) b2
      else intersect b1 idoms.(b2)
    in
    let changed = ref true in
    while !changed do
      changed := false;
      for i = 1 to n - 1 do
        let new_idom =
          Array.fold_left
            (fun acc p ->
              if idoms.(p) < 0 then acc
              else if acc < 0 then p
              else intersect acc p)
            (-1) preds_at.(i)
        in
        if new_idom >= 0 && idoms.(i) <> new_idom then begin
          idoms.(i) <- new_idom;
          changed := true
        end
      done
    done
  end;
  (* number the tree (a forest if some block got no dominator) *)
  let child = Array.make n (-1) and sibling = Array.make n (-1) in
  for i = n - 1 downto 0 do
    let p = idoms.(i) in
    if p >= 0 && p <> i then begin
      sibling.(i) <- child.(p);
      child.(p) <- i
    end
  done;
  let pre = Array.make n (-1) and last = Array.make n (-1) in
  let clock = ref 0 and stack = Array.make n 0 in
  for root = 0 to n - 1 do
    if idoms.(root) < 0 || idoms.(root) = root then begin
      pre.(root) <- !clock;
      incr clock;
      stack.(0) <- root;
      let sp = ref 0 in
      while !sp >= 0 do
        let v = stack.(!sp) in
        let c = child.(v) in
        if c < 0 then begin
          last.(v) <- !clock - 1;
          decr sp
        end
        else begin
          child.(v) <- sibling.(c);
          pre.(c) <- !clock;
          incr clock;
          incr sp;
          stack.(!sp) <- c
        end
      done
    end
  done;
  { order; index; idoms; pre; last }

let idom t bid =
  match Hashtbl.find_opt t.index bid with
  | Some i when t.idoms.(i) >= 0 -> Some t.order.(t.idoms.(i))
  | _ -> None

(** [dominates t a b] is true iff block [a] dominates block [b]. *)
let dominates t a b =
  a = b
  ||
  match Hashtbl.find_opt t.index a with
  | None -> false
  | Some ia -> (
      match Hashtbl.find_opt t.index b with
      | None -> false
      | Some ib ->
          let pa = t.pre.(ia) and pb = t.pre.(ib) in
          pa >= 0 && pa <= pb && pb <= t.last.(ia))

(** [strictly_dominates t a b] is [dominates t a b && a <> b]. *)
let strictly_dominates t a b = a <> b && dominates t a b

(** Blocks in reverse postorder. *)
let rpo t = Array.to_list t.order
