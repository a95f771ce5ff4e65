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
  inputs : (string * int) list;
  outputs : (string * int) list;
}

(* Placeholder stored where no real payload exists (plain-arc
   [port_value] entries, and run-state value slots that hold no
   operand). *)
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
  {
    graph = g;
    n;
    ops = Array.init n (View.op v);
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
    inputs = Graph.inputs g;
    outputs = Graph.outputs g;
  }
