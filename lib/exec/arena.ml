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
  n_slots : int;
  slot_base : int array;  (* length n+1 *)
  dest_base : int array;  (* length n_slots+1 *)
  dest_port : int array;  (* global destination port per dest entry *)
  fanout : int array;  (* destination count per global slot *)
  inputs : (string * int) list;
  outputs : (string * int) list;
}

(* Placeholder stored where no real payload exists (plain-arc
   [port_value] entries, and run-state value slots that hold no
   operand). *)
let dummy_value = Value.Int 0

let arity a cell = a.port_base.(cell + 1) - a.port_base.(cell)
let out_slots a cell = a.slot_base.(cell + 1) - a.slot_base.(cell)

let arc_port a ~src ~dst ~port =
  if dst < 0 || dst >= a.n || port < 0 || port >= arity a dst then -1
  else
    let p = a.port_base.(dst) + port in
    if src >= 0 && a.port_producer.(p) = src then p else -1

let build g =
  (match Graph.validate g with
  | Ok () -> ()
  | Error es ->
    invalid_arg ("Arena.build: invalid graph:\n" ^ String.concat "\n" es));
  let n = Graph.node_count g in
  let producers = Graph.producers g in
  let ops = Array.init n (fun id -> (Graph.node g id).Graph.op) in
  let labels = Array.init n (fun id -> (Graph.node g id).Graph.label) in
  let port_base = Array.make (n + 1) 0 in
  let slot_base = Array.make (n + 1) 0 in
  for id = 0 to n - 1 do
    port_base.(id + 1) <- port_base.(id) + Opcode.arity ops.(id);
    slot_base.(id + 1) <- slot_base.(id) + Opcode.out_slots ops.(id)
  done;
  let n_ports = port_base.(n) in
  let n_slots = slot_base.(n) in
  let port_cell = Array.make n_ports 0 in
  let port_sub = Array.make n_ports 0 in
  let port_kind = Array.make n_ports kind_arc in
  let port_value = Array.make n_ports dummy_value in
  let port_producer = Array.make n_ports (-1) in
  let fanout = Array.make (max n_slots 1) 0 in
  let dest_base = Array.make (n_slots + 1) 0 in
  for id = 0 to n - 1 do
    let node = Graph.node g id in
    Array.iteri
      (fun k binding ->
        let p = port_base.(id) + k in
        port_cell.(p) <- id;
        port_sub.(p) <- k;
        (match producers.(id).(k) with
        | [| (src, _) |] -> port_producer.(p) <- src
        | _ -> ());
        match binding with
        | Graph.In_arc -> ()
        | Graph.In_arc_init v ->
          port_kind.(p) <- kind_init;
          port_value.(p) <- v
        | Graph.In_const v ->
          port_kind.(p) <- kind_const;
          port_value.(p) <- v)
      node.Graph.inputs;
    Array.iteri
      (fun s dests ->
        fanout.(slot_base.(id) + s) <- List.length dests)
      node.Graph.dests
  done;
  for s = 0 to n_slots - 1 do
    dest_base.(s + 1) <- dest_base.(s) + fanout.(s)
  done;
  let dest_port = Array.make (max dest_base.(n_slots) 1) 0 in
  for id = 0 to n - 1 do
    let node = Graph.node g id in
    Array.iteri
      (fun s dests ->
        let base = dest_base.(slot_base.(id) + s) in
        List.iteri
          (fun i { Graph.ep_node; ep_port } ->
            dest_port.(base + i) <- port_base.(ep_node) + ep_port)
          dests)
      node.Graph.dests
  done;
  {
    graph = g;
    n;
    ops;
    labels;
    n_ports;
    port_base;
    port_cell;
    port_sub;
    port_kind;
    port_value;
    port_producer;
    n_slots;
    slot_base;
    dest_base;
    dest_port;
    fanout;
    inputs = Graph.inputs g;
    outputs = Graph.outputs g;
  }
