let successors g id =
  let n = Graph.node g id in
  let seen = Hashtbl.create 8 in
  Array.iter
    (fun dests ->
      List.iter
        (fun { Graph.ep_node; _ } -> Hashtbl.replace seen ep_node ())
        dests)
    n.Graph.dests;
  Hashtbl.fold (fun k () acc -> k :: acc) seen [] |> List.sort compare

let predecessors_table g =
  let prods = Graph.producers g in
  Array.map
    (fun ports ->
      let seen = Hashtbl.create 4 in
      Array.iter
        (fun producers ->
          Array.iter (fun (src, _) -> Hashtbl.replace seen src ()) producers)
        ports;
      Hashtbl.fold (fun k () acc -> k :: acc) seen [] |> List.sort compare)
    prods

let topological_order g =
  let n = Graph.node_count g in
  let indeg = Array.make n 0 in
  let preds = predecessors_table g in
  Array.iteri (fun v ps -> indeg.(v) <- List.length ps) preds;
  let queue = Queue.create () in
  Array.iteri (fun v d -> if d = 0 then Queue.add v queue) indeg;
  let order = ref [] in
  let emitted = ref 0 in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    order := v :: !order;
    incr emitted;
    List.iter
      (fun s ->
        indeg.(s) <- indeg.(s) - 1;
        if indeg.(s) = 0 then Queue.add s queue)
      (successors g v)
  done;
  if !emitted = n then Some (List.rev !order) else None

(* Tarjan's strongly connected components. *)
let cycles g =
  let n = Graph.node_count g in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let counter = ref 0 in
  let sccs = ref [] in
  let succs = Array.init n (successors g) in
  let rec strongconnect v =
    index.(v) <- !counter;
    lowlink.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun w ->
        if index.(w) < 0 then begin
          strongconnect w;
          lowlink.(v) <- min lowlink.(v) lowlink.(w)
        end
        else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w))
      succs.(v);
    if lowlink.(v) = index.(v) then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
          stack := rest;
          on_stack.(w) <- false;
          if w = v then w :: acc else pop (w :: acc)
      in
      let comp = pop [] in
      let is_cycle =
        match comp with
        | [ w ] -> List.mem w succs.(w)
        | _ -> true
      in
      if is_cycle then sccs := comp :: !sccs
    end
  in
  for v = 0 to n - 1 do
    if index.(v) < 0 then strongconnect v
  done;
  List.rev !sccs

let node_delay n =
  match n.Graph.op with Opcode.Fifo k -> k | _ -> 1

let longest_path_from_sources g =
  match topological_order g with
  | None -> None
  | Some order ->
    let n = Graph.node_count g in
    let dist = Array.make n 0 in
    List.iter
      (fun v ->
        let dv = dist.(v) + node_delay (Graph.node g v) in
        List.iter (fun s -> dist.(s) <- max dist.(s) dv) (successors g v))
      order;
    Some dist

let strict_balance_check g =
  let n = Graph.node_count g in
  let depth = Array.make n min_int in
  (* adjacency with weights, both directions *)
  let fwd = Array.make n [] and bwd = Array.make n [] in
  Graph.iter_nodes g (fun node ->
      let w = node_delay node in
      Array.iter
        (fun dests ->
          List.iter
            (fun { Graph.ep_node; _ } ->
              fwd.(node.Graph.id) <- (ep_node, w) :: fwd.(node.Graph.id);
              bwd.(ep_node) <- (node.Graph.id, w) :: bwd.(ep_node))
            dests)
        node.Graph.dests);
  let error = ref None in
  let queue = Queue.create () in
  let assign v d =
    if depth.(v) = min_int then begin
      depth.(v) <- d;
      Queue.add v queue
    end
    else if depth.(v) <> d && !error = None then
      error :=
        Some
          (Printf.sprintf
             "node %s#%d required at depths %d and %d: unbalanced paths"
             (Graph.node g v).Graph.label v depth.(v) d)
  in
  (* Pin all input streams at depth 0 so parallel input paths align. *)
  Graph.iter_nodes g (fun node ->
      match node.Graph.op with
      | Opcode.Input _ -> assign node.Graph.id 0
      | _ -> ());
  let drain () =
    while not (Queue.is_empty queue) do
      let v = Queue.pop queue in
      List.iter (fun (s, w) -> assign s (depth.(v) + w)) fwd.(v);
      List.iter (fun (p, w) -> assign p (depth.(v) - w)) bwd.(v)
    done
  in
  drain ();
  (* Components not reachable from inputs (e.g. graphs driven purely by
     Bool_source or constants) float: pin an arbitrary representative. *)
  for v = 0 to n - 1 do
    if depth.(v) = min_int then begin
      assign v 0;
      drain ()
    end
  done;
  match !error with
  | Some msg -> Error msg
  | None -> Ok depth
