let successors g id =
  Array.fold_left
    (List.fold_left (fun acc { Graph.ep_node; _ } -> ep_node :: acc))
    [] (Graph.node g id).Graph.dests
  |> List.sort_uniq compare

let kahn indeg iter_succ =
  let queue = Array.make (Array.length indeg) 0 and tail = ref 0 in
  let release c =
    queue.(!tail) <- c;
    incr tail
  in
  Array.iteri (fun c d -> if d = 0 then release c) indeg;
  let head = ref 0 in
  while !head < !tail do
    let c = queue.(!head) in
    incr head;
    iter_succ c (fun s ->
        indeg.(s) <- indeg.(s) - 1;
        if indeg.(s) = 0 then release s)
  done;
  Array.sub queue 0 !tail

let order (v : View.t) ~keep =
  let iter_succ c f =
    for i = v.succ_base.(c) to v.succ_base.(c + 1) - 1 do
      if keep.(v.succ.(i)) then f v.succ.(i)
    done
  in
  let indeg = Array.map (fun k -> if k then 0 else -1) keep in
  for c = 0 to v.n - 1 do
    if keep.(c) then iter_succ c (fun s -> indeg.(s) <- indeg.(s) + 1)
  done;
  kahn indeg iter_succ

type rings = { ring_of : int array; ring_base : int array; members : int array }

(* Tarjan's strongly connected components. *)
let rings (v : View.t) =
  let n = v.n in
  let index = Array.make n (-1) and lowlink = Array.make n 0 in
  let on_stack = Bytes.make n '\000' in
  let stack = Array.make n 0 and sp = ref 0 and counter = ref 0 in
  let ring_of = Array.make n (-1) and members = Array.make n 0 in
  let ring_base = Array.make (n + 1) 0 and rings = ref 0 in
  let rec strongconnect c =
    index.(c) <- !counter;
    lowlink.(c) <- !counter;
    incr counter;
    stack.(!sp) <- c;
    incr sp;
    Bytes.set on_stack c '\001';
    let self_arc = ref false in
    for i = v.succ_base.(c) to v.succ_base.(c + 1) - 1 do
      let w = v.succ.(i) in
      if w = c then self_arc := true;
      if index.(w) < 0 then begin
        strongconnect w;
        lowlink.(c) <- min lowlink.(c) lowlink.(w)
      end
      else if Bytes.get on_stack w <> '\000' then
        lowlink.(c) <- min lowlink.(c) index.(w)
    done;
    if lowlink.(c) = index.(c) then begin
      let base = ref (!sp - 1) in
      while stack.(!base) <> c do
        decr base
      done;
      let size = !sp - !base in
      for i = !base to !sp - 1 do
        Bytes.set on_stack stack.(i) '\000'
      done;
      if size > 1 || !self_arc then begin
        let k = !rings and first = ring_base.(!rings) in
        Array.blit stack !base members first size;
        for i = first to first + size - 1 do
          ring_of.(members.(i)) <- k
        done;
        ring_base.(k + 1) <- first + size;
        incr rings
      end;
      sp := !base
    end
  in
  for c = 0 to n - 1 do
    if index.(c) < 0 then strongconnect c
  done;
  { ring_of; ring_base = Array.sub ring_base 0 (!rings + 1); members }

let topological_order g =
  let v = View.of_graph g in
  let order = order v ~keep:(Array.make v.n true) in
  if Array.length order = v.n then Some (Array.to_list order) else None

let cycles g =
  let r = rings (View.of_graph g) in
  List.init
    (Array.length r.ring_base - 1)
    (fun k ->
      Array.to_list
        (Array.sub r.members r.ring_base.(k)
           (r.ring_base.(k + 1) - r.ring_base.(k))))

let node_delay n =
  match n.Graph.op with Opcode.Fifo k -> k | _ -> 1

let longest_path_from_sources g =
  let v = View.of_graph g in
  let order = order v ~keep:(Array.make v.n true) in
  if Array.length order < v.n then None
  else begin
    let dist = Array.make v.n 0 in
    Array.iter
      (fun c ->
        let dc = dist.(c) + node_delay (Graph.node g c) in
        for i = v.succ_base.(c) to v.succ_base.(c + 1) - 1 do
          let s = v.succ.(i) in
          dist.(s) <- max dist.(s) dc
        done)
      order;
    Some dist
  end

let strict_balance_check g =
  let v = View.of_graph g in
  let delay = Array.init v.n (fun c -> node_delay (Graph.node g c)) in
  let depth = Array.make v.n min_int in
  let error = ref None in
  let queue = Queue.create () in
  let assign c d =
    if depth.(c) = min_int then begin
      depth.(c) <- d;
      Queue.add c queue
    end
    else if depth.(c) <> d && !error = None then
      error :=
        Some
          (Printf.sprintf
             "node %s#%d required at depths %d and %d: unbalanced paths"
             (Graph.node g c).Graph.label c depth.(c) d)
  in
  (* Pin all input streams at depth 0 so parallel input paths align. *)
  for c = 0 to v.n - 1 do
    match View.op v c with Opcode.Input _ -> assign c 0 | _ -> ()
  done;
  let drain () =
    while not (Queue.is_empty queue) do
      let c = Queue.pop queue in
      for i = v.succ_base.(c) to v.succ_base.(c + 1) - 1 do
        assign v.succ.(i) (depth.(c) + delay.(c))
      done;
      for i = v.pred_base.(c) to v.pred_base.(c + 1) - 1 do
        assign v.pred.(i) (depth.(c) - delay.(v.pred.(i)))
      done
    done
  in
  drain ();
  (* Components not reachable from inputs (e.g. graphs driven purely by
     Bool_source or constants) float: pin an arbitrary representative. *)
  for c = 0 to v.n - 1 do
    if depth.(c) = min_int then begin
      assign c 0;
      drain ()
    end
  done;
  match !error with
  | Some msg -> Error msg
  | None -> Ok depth
