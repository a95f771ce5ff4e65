(* The flat-arena lowering pass: one pass over a validated graph
   producing int-indexed arrays that both engines' hot loops run on.
   Everything here is static — built once per program, never mutated —
   so a single arena can back any number of concurrent runs. *)

open Dfg

(* Input-port kinds, as dense ints so the hot path branches on an
   unboxed compare instead of a constructor match. *)
let kind_arc = 0
let kind_init = 1
let kind_const = 2

type t = {
  graph : Graph.t;
  n : int;  (* cells *)
  ops : Opcode.t array;
  labels : string array;
  (* ---- input ports, numbered globally: cell [c]'s local port [k] is
     global port [port_base.(c) + k] ---- *)
  n_ports : int;
  port_base : int array;  (* length n+1 *)
  port_cell : int array;  (* owning cell per global port *)
  port_sub : int array;  (* local port index per global port *)
  port_kind : int array;  (* kind_arc / kind_init / kind_const *)
  port_value : Value.t array;  (* init/const payload; dummy for arcs *)
  port_producer : int array;  (* producing cell per arc port, -1 *)
  (* ---- output slots and destinations, numbered globally: cell [c]'s
     slot [s] is global slot [slot_base.(c) + s]; its destinations are
     dest_port.(dest_base.(slot) .. dest_base.(slot+1) - 1) ---- *)
  slot_base : int array;  (* length n+1 *)
  dest_base : int array;  (* length slot_base.(n)+1 *)
  dest_port : int array;  (* global destination port per dest entry *)
  (* ---- per-cell run-state layouts: a FIFO's ring slots
     fifo_base.(c) .. fifo_base.(c+1) - 1, a Bool_source's one-period
     bit table ctl_base.(c) .. ctl_base.(c+1) - 1 in ctl_bits ---- *)
  fifo_base : int array;  (* length n+1 *)
  ctl_base : int array;  (* length n+1 *)
  ctl_bits : Bytes.t;
  inputs : (string * int) list;
  outputs : (string * int) list;
}

(* Placeholder stored where no real payload exists: plain-arc
   [port_value] entries, and a snapshot's empty ports and resend slots
   with nothing to resend. *)
let dummy_value = Value.Int 0

let is_arc a p = p >= 0 && p < a.n_ports && a.port_producer.(p) >= 0

(* Called once per firing by both engines.  [id] is a cell, so every
   index lies inside the arrays [build] made for it: unchecked. *)
external ( .!() ) : 'a array -> int -> 'a = "%array_unsafe_get"

let refires a id =
  let b = a.port_base.!(id) in
  match a.ops.!(id) with
  | Opcode.Fifo _ -> true
  | Opcode.Merge | Opcode.Merge_switch -> a.port_kind.!(b) = kind_const
  | _ ->
    let p = ref b and e = a.port_base.!(id + 1) in
    while !p < e && a.port_kind.!(!p) = kind_const do
      incr p
    done;
    !p = e

(* Position [k] of a Bool_source's control sequence, read off its bit
   table instead of folding the sequence's segment list. *)
let control a id k =
  let base = a.ctl_base.!(id) in
  let period = a.ctl_base.!(id + 1) - base in
  let k =
    match a.ops.!(id) with
    | Opcode.Bool_source s when s.Ctlseq.cyclic -> k mod period
    | _ -> k
  in
  if k >= period then -1
  else
    let bit = base + k in
    (Char.code (Bytes.unsafe_get a.ctl_bits (bit lsr 3)) lsr (bit land 7))
    land 1

(* Prefix sums of [size] over the cells. *)
let bases ops size =
  let n = Array.length ops in
  let base = Array.make (n + 1) 0 in
  for id = 0 to n - 1 do
    base.(id + 1) <- base.(id) + size ops.(id)
  done;
  base

let build g =
  (match Graph.validate g with
  | Ok () -> ()
  | Error es ->
    invalid_arg ("Arena.build: invalid graph:\n" ^ String.concat "\n" es));
  let v = View.of_graph g in
  let n = v.View.n and n_ports = v.View.port_base.(v.View.n) in
  let n_slots = v.View.slot_base.(n) in
  let port_cell = Array.make n_ports 0 in
  let port_sub = Array.make n_ports 0 in
  let port_kind = Array.make n_ports kind_arc in
  let port_value = Array.make n_ports dummy_value in
  for id = 0 to n - 1 do
    Array.iteri
      (fun k binding ->
        let p = v.View.port_base.(id) + k in
        port_cell.(p) <- id;
        port_sub.(p) <- k;
        match binding with
        | Graph.In_arc -> ()
        | Graph.In_arc_init x ->
          port_kind.(p) <- kind_init;
          port_value.(p) <- x
        | Graph.In_const x ->
          port_kind.(p) <- kind_const;
          port_value.(p) <- x)
      (Graph.node g id).Graph.inputs
  done;
  (* the view holds a slot's destinations in connect order; the engines
     send in Graph's list order, last connected first *)
  let dest_port = Array.make (max v.View.dest_base.(n_slots) 1) 0 in
  for k = 0 to n_slots - 1 do
    let first = v.View.dest_base.(k) and last = v.View.dest_base.(k + 1) - 1 in
    for a = first to last do
      dest_port.(first + last - a) <-
        v.View.port_base.(v.View.dest_cell.(a)) + v.View.dest_port.(a)
    done
  done;
  let ops = Array.init n (View.op v) in
  let fifo_base =
    bases ops (function Opcode.Fifo k -> max k 1 | _ -> 0)
  in
  let ctl_base =
    bases ops (function Opcode.Bool_source s -> Ctlseq.period s | _ -> 0)
  in
  let ctl_bits = Bytes.make ((ctl_base.(n) + 7) / 8) '\000' in
  Array.iteri
    (fun id op ->
      match op with
      | Opcode.Bool_source s ->
        let bit = ref ctl_base.(id) in
        List.iter
          (fun { Ctlseq.value; count } ->
            for b = !bit to !bit + count - 1 do
              if value then
                Bytes.set ctl_bits (b lsr 3)
                  (Char.chr
                     (Char.code (Bytes.get ctl_bits (b lsr 3))
                     lor (1 lsl (b land 7))))
            done;
            bit := !bit + count)
          s.Ctlseq.segments
      | _ -> ())
    ops;
  {
    graph = g;
    n;
    ops;
    labels = Array.init n (fun id -> (Graph.node g id).Graph.label);
    n_ports;
    port_base = v.View.port_base;
    port_cell;
    port_sub;
    port_kind;
    port_value;
    port_producer = v.View.producer;
    slot_base = v.View.slot_base;
    dest_base = v.View.dest_base;
    dest_port;
    fifo_base;
    ctl_base;
    ctl_bits;
    inputs = Graph.inputs g;
    outputs = Graph.outputs g;
  }
