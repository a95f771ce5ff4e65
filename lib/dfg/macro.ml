(* Rewrites are expressed through one generic copy: [expand] either keeps a
   node (None) or provides, in the new graph, an attachment point for each
   of its input ports and each of its output slots. *)

type expansion = {
  in_ports : (int * int) array;   (* new (node, port) per old input port *)
  out_slots : (int * int) array;  (* new (node, slot) per old output slot *)
}

let copy_with g expand =
  let ng = Graph.create () in
  let n = Graph.node_count g in
  let in_map = Array.make n [||] in
  let out_map = Array.make n [||] in
  for id = 0 to n - 1 do
    let node = Graph.node g id in
    match expand ng node with
    | Some { in_ports; out_slots } ->
      in_map.(id) <- in_ports;
      out_map.(id) <- out_slots
    | None ->
      let nid = Graph.add ng ~label:node.Graph.label node.Graph.op node.Graph.inputs in
      in_map.(id) <-
        Array.init (Array.length node.Graph.inputs) (fun p -> (nid, p));
      out_map.(id) <-
        Array.init (Array.length node.Graph.dests) (fun s -> (nid, s))
  done;
  Graph.iter_nodes g (fun node ->
      Array.iteri
        (fun slot dests ->
          let src, nslot = out_map.(node.Graph.id).(slot) in
          List.iter
            (fun { Graph.ep_node; ep_port } ->
              let dst, port = in_map.(ep_node).(ep_port) in
              Graph.connect_slot ng ~src ~slot:nslot ~dst ~port)
            dests)
        node.Graph.dests);
  ng

let expand_fifos g =
  copy_with g (fun ng node ->
      match node.Graph.op with
      | Opcode.Fifo k ->
        assert (k >= 1);
        let first =
          Graph.add ng
            ~label:(node.Graph.label ^ ".0")
            Opcode.Id [| node.Graph.inputs.(0) |]
        in
        let last = ref first in
        for j = 1 to k - 1 do
          let next =
            Graph.add ng
              ~label:(Printf.sprintf "%s.%d" node.Graph.label j)
              Opcode.Id [| Graph.In_arc |]
          in
          Graph.connect ng ~src:!last ~dst:next ~port:0;
          last := next
        done;
        Some { in_ports = [| (first, 0) |]; out_slots = [| (!last, 0) |] }
      | _ -> None)

(* Build a balanced OR tree over nodes whose outputs are all at the same
   pipeline depth; odd leftovers pass through an Id so every path keeps
   equal length. *)
let rec or_tree ng = function
  | [] -> invalid_arg "or_tree: empty"
  | [ x ] -> x
  | xs ->
    let rec pair = function
      | a :: b :: rest ->
        let n = Graph.add ng ~label:"OR" (Opcode.Logic Opcode.Or)
            [| Graph.In_arc; Graph.In_arc |]
        in
        Graph.connect ng ~src:a ~dst:n ~port:0;
        Graph.connect ng ~src:b ~dst:n ~port:1;
        n :: pair rest
      | [ a ] ->
        let n = Graph.add ng ~label:"ID" Opcode.Id [| Graph.In_arc |] in
        Graph.connect ng ~src:a ~dst:n ~port:0;
        [ n ]
      | [] -> []
    in
    or_tree ng (pair xs)

(* Free-running index counter: ADD(+1) in a 2-cycle with an ID; the single
   token is preloaded as -1 on the ADD so the first emitted value is 0.  An
   even loop of 2 cells with 1 token runs at the maximal rate 1/2. *)
let build_counter ng label =
  let add =
    Graph.add ng ~label:(label ^ ".ctr")
      (Opcode.Arith Opcode.Add)
      [| Graph.In_arc_init (Value.Int (-1)); Graph.In_const (Value.Int 1) |]
  in
  let back = Graph.add ng ~label:(label ^ ".fb") Opcode.Id [| Graph.In_arc |] in
  Graph.connect ng ~src:add ~dst:back ~port:0;
  Graph.connect ng ~src:back ~dst:add ~port:0;
  add

let build_generator ng label (seq : Ctlseq.t) =
  let p = Ctlseq.period seq in
  let add = build_counter ng label in
  let pos =
    Graph.add ng ~label:(label ^ ".mod")
      (Opcode.Arith Opcode.Mod)
      [| Graph.In_arc; Graph.In_const (Value.Int p) |]
  in
  Graph.connect ng ~src:add ~dst:pos ~port:0;
  (* True runs as [start, stop] windows over position 0..p-1. *)
  let windows =
    let _, acc =
      List.fold_left
        (fun (start, acc) { Ctlseq.value; count } ->
          let acc =
            if value then (start, start + count - 1) :: acc else acc
          in
          (start + count, acc))
        (0, []) seq.Ctlseq.segments
    in
    List.rev acc
  in
  let leaf (lo, hi) =
    (* Single-sided windows save a comparator but would unbalance the OR
       tree, so each window is uniformly GE && LE. *)
    let ge =
      Graph.add ng ~label:"GE" (Opcode.Compare Opcode.Ge)
        [| Graph.In_arc; Graph.In_const (Value.Int lo) |]
    in
    let le =
      Graph.add ng ~label:"LE" (Opcode.Compare Opcode.Le)
        [| Graph.In_arc; Graph.In_const (Value.Int hi) |]
    in
    Graph.connect ng ~src:pos ~dst:ge ~port:0;
    Graph.connect ng ~src:pos ~dst:le ~port:0;
    let conj =
      Graph.add ng ~label:"AND" (Opcode.Logic Opcode.And)
        [| Graph.In_arc; Graph.In_arc |]
    in
    Graph.connect ng ~src:ge ~dst:conj ~port:0;
    Graph.connect ng ~src:le ~dst:conj ~port:1;
    conj
  in
  match windows with
  | [] ->
    (* constant-false stream: position < 0 never holds *)
    let n =
      Graph.add ng ~label:"FALSE" (Opcode.Compare Opcode.Lt)
        [| Graph.In_arc; Graph.In_const (Value.Int 0) |]
    in
    Graph.connect ng ~src:pos ~dst:n ~port:0;
    n
  | ws -> or_tree ng (List.map leaf ws)

let expand_bool_sources g =
  copy_with g (fun ng node ->
      match node.Graph.op with
      | Opcode.Bool_source seq when seq.Ctlseq.cyclic ->
        let out = build_generator ng node.Graph.label seq in
        Some { in_ports = [||]; out_slots = [| (out, 0) |] }
      | _ -> None)

(* Replace every [Iota] index source with a counter / MOD / ADD
   subgraph. *)
let expand_iotas g =
  copy_with g (fun ng node ->
      match node.Graph.op with
      | Opcode.Iota { lo; hi; rep } ->
        let add = build_counter ng node.Graph.label in
        let tick =
          if rep = 1 then add
          else begin
            let d =
              Graph.add ng
                ~label:(node.Graph.label ^ ".rep")
                (Opcode.Arith Opcode.Div)
                [| Graph.In_arc; Graph.In_const (Value.Int rep) |]
            in
            Graph.connect ng ~src:add ~dst:d ~port:0;
            d
          end
        in
        let pos =
          Graph.add ng
            ~label:(node.Graph.label ^ ".mod")
            (Opcode.Arith Opcode.Mod)
            [| Graph.In_arc; Graph.In_const (Value.Int (hi - lo + 1)) |]
        in
        Graph.connect ng ~src:tick ~dst:pos ~port:0;
        let out =
          if lo = 0 then pos
          else begin
            let shifted =
              Graph.add ng
                ~label:(node.Graph.label ^ ".base")
                (Opcode.Arith Opcode.Add)
                [| Graph.In_arc; Graph.In_const (Value.Int lo) |]
            in
            Graph.connect ng ~src:pos ~dst:shifted ~port:0;
            shifted
          end
        in
        Some { in_ports = [||]; out_slots = [| (out, 0) |] }
      | _ -> None)

let expand_all g = expand_fifos (expand_iotas (expand_bool_sources g))
