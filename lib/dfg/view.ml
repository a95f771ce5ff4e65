(* The frozen view the compile passes run on; see the .mli. *)

type t = {
  graph : Graph.t;
  n : int;
  cell : int array;
  slot_base : int array;
  dest_base : int array;
  dest_cell : int array;
  dest_port : int array;
  succ_base : int array;
  succ : int array;
  pred_base : int array;
  pred : int array;
  port_base : int array;
  producer : int array;
  producer_slot : int array;
  producers : int array;
}

let prefix_sums a =
  for i = 1 to Array.length a - 1 do
    a.(i) <- a.(i) + a.(i - 1)
  done

(* The view of cells [cell] whose global slot [k] has the destinations
   [dests.(k)], last connected first, as Graph lists them.  Cells are
   visited in ascending order, so a [last] mark per cell dedups a cell's
   predecessors as they arrive, already ascending, and filing each cell
   under its predecessors in ascending order does the same for
   successors: no sort. *)
let make graph cell slot_base dests ~arity =
  let n = Array.length cell and slots = Array.length dests in
  let dest_base = Array.make (slots + 1) 0 in
  Array.iteri (fun k l -> dest_base.(k + 1) <- List.length l) dests;
  prefix_sums dest_base;
  let dest_cell = Array.make dest_base.(slots) 0
  and dest_port = Array.make dest_base.(slots) 0 in
  Array.iteri
    (fun k l ->
      List.iteri
        (fun i { Graph.ep_node; ep_port } ->
          dest_cell.(dest_base.(k + 1) - 1 - i) <- ep_node;
          dest_port.(dest_base.(k + 1) - 1 - i) <- ep_port)
        l)
    dests;
  let port_base = Array.make (n + 1) 0 in
  for c = 0 to n - 1 do
    port_base.(c + 1) <- arity c
  done;
  prefix_sums port_base;
  let ports = port_base.(n) in
  let producer = Array.make ports (-1)
  and producer_slot = Array.make ports 0
  and producers = Array.make ports 0 in
  let last = Array.make n (-1) and pred_base = Array.make (n + 1) 0 in
  let iter_arcs f =
    for c = 0 to n - 1 do
      for k = slot_base.(c) to slot_base.(c + 1) - 1 do
        for a = dest_base.(k) to dest_base.(k + 1) - 1 do
          f c k dest_cell.(a) dest_port.(a)
        done
      done
    done
  in
  iter_arcs (fun c k d port ->
      let p = port_base.(d) + port in
      producer.(p) <- c;
      producer_slot.(p) <- k - slot_base.(c);
      producers.(p) <- producers.(p) + 1;
      if last.(d) <> c then begin
        last.(d) <- c;
        pred_base.(d + 1) <- pred_base.(d + 1) + 1
      end);
  prefix_sums pred_base;
  let pred = Array.make pred_base.(n) 0 and fill = Array.sub pred_base 0 n in
  Array.fill last 0 n (-1);
  iter_arcs (fun c _ d _ ->
      if last.(d) <> c then begin
        last.(d) <- c;
        pred.(fill.(d)) <- c;
        fill.(d) <- fill.(d) + 1
      end);
  let succ_base = Array.make (n + 1) 0 in
  Array.iter (fun c -> succ_base.(c + 1) <- succ_base.(c + 1) + 1) pred;
  prefix_sums succ_base;
  let succ = Array.make (Array.length pred) 0
  and fill = Array.sub succ_base 0 n in
  for d = 0 to n - 1 do
    for i = pred_base.(d) to pred_base.(d + 1) - 1 do
      let c = pred.(i) in
      succ.(fill.(c)) <- d;
      fill.(c) <- fill.(c) + 1
    done
  done;
  { graph; n; cell; slot_base; dest_base; dest_cell; dest_port; succ_base;
    succ; pred_base; pred; port_base; producer; producer_slot; producers }

let of_graph g =
  let nodes = Array.init (Graph.node_count g) (Graph.node g) in
  let slot_base = Array.make (Array.length nodes + 1) 0 in
  Array.iteri
    (fun c nd -> slot_base.(c + 1) <- Array.length nd.Graph.dests)
    nodes;
  prefix_sums slot_base;
  make g
    (Array.map (fun nd -> nd.Graph.id) nodes)
    slot_base
    (Array.concat (Array.to_list (Array.map (fun nd -> nd.Graph.dests) nodes)))
    ~arity:(fun c -> Array.length nodes.(c).Graph.inputs)

let merge ?(reverse = false) v ~live ~rep =
  let keep c = live.(c) && rep.(c) = c in
  let id = Array.make v.n (-1) and orig = Array.make v.n 0 and kept = ref 0 in
  for c = 0 to v.n - 1 do
    if keep c then begin
      id.(c) <- !kept;
      orig.(!kept) <- c;
      incr kept
    end
  done;
  let kept = !kept in
  let slots c = v.slot_base.(c + 1) - v.slot_base.(c) in
  let slot_base = Array.make (kept + 1) 0 in
  for j = 0 to kept - 1 do
    slot_base.(j + 1) <- slots orig.(j)
  done;
  prefix_sums slot_base;
  (* a kept slot gathers the arcs of the cells it represents, ascending *)
  let dests = Array.make slot_base.(kept) [] in
  for c = 0 to v.n - 1 do
    if live.(c) then
      for s = 0 to slots c - 1 do
        let k = slot_base.(id.(rep.(c))) + s and u = v.slot_base.(c) + s in
        let first = v.dest_base.(u) and last = v.dest_base.(u + 1) - 1 in
        for a = first to last do
          let a = if reverse then first + last - a else a in
          let d = v.dest_cell.(a) in
          if keep d then
            dests.(k) <-
              { Graph.ep_node = id.(d); ep_port = v.dest_port.(a) } :: dests.(k)
        done
      done
  done;
  (* one Sink per open slot, the last open slot's first *)
  let sinks = ref 0 in
  for k = Array.length dests - 1 downto 0 do
    if dests.(k) = [] then begin
      dests.(k) <- [ { Graph.ep_node = kept + !sinks; ep_port = 0 } ];
      incr sinks
    end
  done;
  let n = kept + !sinks in
  ( make v.graph
      (Array.init n (fun j -> if j < kept then v.cell.(orig.(j)) else -1))
      (Array.init (n + 1) (fun j -> slot_base.(min j kept)))
      dests
      ~arity:(fun j ->
        if j < kept then v.port_base.(orig.(j) + 1) - v.port_base.(orig.(j))
        else 1),
    Array.init v.n (fun c -> if live.(c) then id.(rep.(c)) else -1) )

let node v c =
  if v.cell.(c) < 0 then invalid_arg "View.node: an added Sink"
  else Graph.node v.graph v.cell.(c)

let op v c = if v.cell.(c) < 0 then Opcode.Sink else (node v c).Graph.op

let cells v =
  let g = Graph.create () in
  Array.iter
    (fun c ->
      ignore
        (if c < 0 then
           Graph.add g ~label:"discard" Opcode.Sink [| Graph.In_arc |]
         else
           let nd = Graph.node v.graph c in
           Graph.add g ~label:nd.Graph.label nd.Graph.op nd.Graph.inputs))
    v.cell;
  g

let to_graph v =
  let g = cells v in
  for c = 0 to v.n - 1 do
    for k = v.slot_base.(c) to v.slot_base.(c + 1) - 1 do
      for a = v.dest_base.(k) to v.dest_base.(k + 1) - 1 do
        Graph.connect_slot g ~src:c ~slot:(k - v.slot_base.(c))
          ~dst:v.dest_cell.(a) ~port:v.dest_port.(a)
      done
    done
  done;
  g
