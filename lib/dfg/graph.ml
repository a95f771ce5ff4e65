type binding = In_arc | In_arc_init of Value.t | In_const of Value.t

type endpoint = { ep_node : int; ep_port : int }

type node = {
  id : int;
  op : Opcode.t;
  label : string;
  inputs : binding array;
  mutable dests : endpoint list array;
}

type t = { mutable nodes : node array; mutable count : int }

let create () = { nodes = [||]; count = 0 }

let node_count g = g.count

let node g id =
  if id < 0 || id >= g.count then
    invalid_arg (Printf.sprintf "Graph.node: bad id %d" id)
  else g.nodes.(id)

let add g ?label op bindings =
  let arity = Opcode.arity op in
  if Array.length bindings <> arity then
    invalid_arg
      (Printf.sprintf "Graph.add: %s expects %d operands, got %d"
         (Opcode.name op) arity (Array.length bindings));
  let id = g.count in
  let label = match label with Some l -> l | None -> Opcode.name op in
  let n =
    {
      id;
      op;
      label;
      inputs = Array.copy bindings;
      dests = Array.make (Opcode.out_slots op) [];
    }
  in
  if Array.length g.nodes = g.count then begin
    let cap = max 16 (2 * Array.length g.nodes) in
    let nodes = Array.make cap n in
    Array.blit g.nodes 0 nodes 0 g.count;
    g.nodes <- nodes
  end;
  g.nodes.(g.count) <- n;
  g.count <- g.count + 1;
  id

let connect_slot g ~src ~slot ~dst ~port =
  let s = node g src and d = node g dst in
  if slot < 0 || slot >= Array.length s.dests then
    invalid_arg
      (Printf.sprintf "Graph.connect: %s#%d has no output slot %d" s.label
         src slot);
  if port < 0 || port >= Array.length d.inputs then
    invalid_arg
      (Printf.sprintf "Graph.connect: %s#%d has no input port %d" d.label dst
         port);
  (match d.inputs.(port) with
  | In_const _ ->
    invalid_arg
      (Printf.sprintf
         "Graph.connect: port %d of %s#%d is a constant operand" port d.label
         dst)
  | In_arc | In_arc_init _ -> ());
  s.dests.(slot) <- { ep_node = dst; ep_port = port } :: s.dests.(slot)

let connect g ~src ~dst ~port = connect_slot g ~src ~slot:0 ~dst ~port

let iter_nodes g f =
  for i = 0 to g.count - 1 do
    f g.nodes.(i)
  done

let fold_nodes g ~init ~f =
  let acc = ref init in
  iter_nodes g (fun n -> acc := f !acc n);
  !acc

let producers g =
  let prods =
    Array.init g.count (fun i ->
        Array.make (Array.length g.nodes.(i).inputs) [])
  in
  iter_nodes g (fun n ->
      Array.iteri
        (fun slot dests ->
          List.iter
            (fun { ep_node; ep_port } ->
              prods.(ep_node).(ep_port) <-
                (n.id, slot) :: prods.(ep_node).(ep_port))
            dests)
        n.dests);
  Array.map (Array.map Array.of_list) prods

let inputs g =
  fold_nodes g ~init:[] ~f:(fun acc n ->
      match n.op with Opcode.Input name -> (name, n.id) :: acc | _ -> acc)
  |> List.rev

let outputs g =
  fold_nodes g ~init:[] ~f:(fun acc n ->
      match n.op with Opcode.Output name -> (name, n.id) :: acc | _ -> acc)
  |> List.rev

let validate g =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let prods = producers g in
  iter_nodes g (fun n ->
      let arc_ports = ref 0 in
      Array.iteri
        (fun port binding ->
          match binding with
          | In_const _ -> ()
          | In_arc | In_arc_init _ -> (
            incr arc_ports;
            match Array.length prods.(n.id).(port) with
            | 1 -> ()
            | 0 ->
              err "%s#%d: arc port %d has no producer" n.label n.id port
            | k ->
              err "%s#%d: arc port %d has %d producers" n.label n.id port k))
        n.inputs;
      if Array.length n.inputs > 0 && !arc_ports = 0 then
        err "%s#%d: all operands are constants (cell would fire unboundedly)"
          n.label n.id;
      Array.iteri
        (fun slot dests ->
          if dests = [] then
            err "%s#%d: output slot %d has no destination" n.label n.id slot)
        n.dests);
  let dup what names =
    let sorted = List.sort compare names in
    let rec dups = function
      | a :: (b :: _ as rest) ->
        if a = b then err "duplicate %s stream %s" what a;
        dups rest
      | _ -> ()
    in
    dups sorted
  in
  dup "input" (List.map fst (inputs g));
  dup "output" (List.map fst (outputs g));
  match !errors with [] -> Ok () | es -> Error (List.rev es)

let validate_exn g =
  match validate g with
  | Ok () -> ()
  | Error es -> invalid_arg ("invalid dataflow graph:\n" ^ String.concat "\n" es)

let opcode_census g =
  let tbl = Hashtbl.create 16 in
  iter_nodes g (fun n ->
      let key =
        match n.op with
        | Opcode.Fifo _ -> "FIFO"
        | Opcode.Bool_source _ -> "CTL"
        | Opcode.Iota _ -> "IOTA"
        | Opcode.Input _ -> "IN"
        | Opcode.Output _ -> "OUT"
        | op -> Opcode.name op
      in
      Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key)));
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort compare

let arc_count g =
  fold_nodes g ~init:0 ~f:(fun acc n ->
      acc + Array.fold_left (fun a dests -> a + List.length dests) 0 n.dests)
