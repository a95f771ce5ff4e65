open Dfg
module Mincost_flow = Mcf.Mincost_flow

exception Cyclic

let default_weight = Analysis.node_delay

let no_skip _ _ = false

(* All arcs as (src, dst, weight of src under [weight]). *)
let arcs_of ?(weight = default_weight) ?(skip = no_skip) g =
  Graph.fold_nodes g ~init:[] ~f:(fun acc n ->
      let w = weight n in
      Array.fold_left
        (fun acc dests ->
          List.fold_left
            (fun acc { Graph.ep_node; _ } ->
              if skip n.Graph.id ep_node then acc
              else (n.Graph.id, ep_node, w) :: acc)
            acc dests)
        acc n.Graph.dests)
  |> List.rev

(* Topological order over a filtered arc list; None when a cycle remains. *)
let topo_of_arcs n arcs =
  let indeg = Array.make n 0 and succ = Array.make n [] in
  List.iter
    (fun (u, v, w) ->
      indeg.(v) <- indeg.(v) + 1;
      succ.(u) <- (v, w) :: succ.(u))
    arcs;
  let queue = Queue.create () in
  Array.iteri (fun v d -> if d = 0 then Queue.add v queue) indeg;
  let order = ref [] and emitted = ref 0 in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    order := v :: !order;
    incr emitted;
    List.iter
      (fun (s, _) ->
        indeg.(s) <- indeg.(s) - 1;
        if indeg.(s) = 0 then Queue.add s queue)
      succ.(v)
  done;
  if !emitted = n then Some (List.rev !order, succ) else None

let naive_levels_arcs n arcs =
  match topo_of_arcs n arcs with
  | None -> raise Cyclic
  | Some (order, succ) ->
    let levels = Array.make n 0 in
    List.iter
      (fun u ->
        List.iter
          (fun (v, w) -> levels.(v) <- max levels.(v) (levels.(u) + w))
          succ.(u))
      order;
    levels

let naive_levels ?weight g =
  naive_levels_arcs (Graph.node_count g) (arcs_of ?weight g)

let is_feasible ?weight g levels =
  List.for_all (fun (u, v, w) -> levels.(v) - levels.(u) >= w) (arcs_of ?weight g)

let buffer_cost ?weight g levels =
  List.fold_left
    (fun acc (u, v, w) -> acc + (levels.(v) - levels.(u) - w))
    0 (arcs_of ?weight g)

let reduce_levels_arcs n arcs levels =
  let levels = Array.copy levels in
  let in_arcs = Array.make n [] and out_arcs = Array.make n [] in
  List.iter
    (fun (u, v, w) ->
      in_arcs.(v) <- (u, w) :: in_arcs.(v);
      out_arcs.(u) <- (v, w) :: out_arcs.(u))
    arcs;
  let sweep () =
    let moved = ref false in
    for v = 0 to n - 1 do
      let coeff = List.length in_arcs.(v) - List.length out_arcs.(v) in
      if coeff <> 0 then begin
        let lb =
          List.fold_left
            (fun acc (u, w) -> max acc (levels.(u) + w))
            min_int in_arcs.(v)
        and ub =
          List.fold_left
            (fun acc (s, w) -> min acc (levels.(s) - w))
            max_int out_arcs.(v)
        in
        let target =
          if coeff > 0 then lb (* shrinking level removes inbound slack *)
          else ub
        in
        if target > min_int && target < max_int && target <> levels.(v)
        then begin
          (* only strictly improving moves, to guarantee termination *)
          let delta = coeff * (target - levels.(v)) in
          if delta < 0 then begin
            levels.(v) <- target;
            moved := true
          end
        end
      end
    done;
    !moved
  in
  let budget = ref (10 * (n + 1)) in
  while sweep () && !budget > 0 do
    decr budget
  done;
  levels

let reduce_levels ?weight g levels =
  reduce_levels_arcs (Graph.node_count g) (arcs_of ?weight g) levels

(* Optimal balancing as the LP dual of min-cost flow; see
   docs/THEORY.md §3.  The primal is  min Σ c_v l_v  s.t.  l_v - l_u >= w
   with c_v = indeg - outdeg; the dual is an exact-balance transshipment
   with per-arc reward w.  Its cells' arcs cost -w, with a capacity above
   the total supply, which bounds the flow on any one arc. *)
let cell_network n arcs =
  let net = Mincost_flow.create (n + 2) in
  let capacity = (4 * List.length arcs) + n + 16 in
  List.iter
    (fun (u, v, w) ->
      ignore (Mincost_flow.add_arc net ~src:u ~dst:v ~capacity ~cost:(-w)))
    arcs;
  net

(* The reference solve: successive shortest paths from a source feeding
   every cell with supply to a sink draining every cell with demand. *)
let solve_flow_arcs n arcs =
  (match topo_of_arcs n arcs with
  | None -> raise Cyclic
  | Some _ -> ());
  let net = cell_network n arcs in
  let source = n and sink = n + 1 in
  let c = Array.make n 0 in
  List.iter
    (fun (u, v, _) ->
      c.(v) <- c.(v) + 1;
      c.(u) <- c.(u) - 1)
    arcs;
  let supply_total = ref 0 in
  Array.iteri
    (fun v cv ->
      if cv > 0 then begin
        ignore
          (Mincost_flow.add_arc net ~src:v ~dst:sink ~capacity:cv ~cost:0);
        supply_total := !supply_total + cv
      end
      else if cv < 0 then
        ignore
          (Mincost_flow.add_arc net ~src:source ~dst:v ~capacity:(-cv)
             ~cost:0))
    c;
  let solution = Mincost_flow.min_cost_max_flow net ~source ~sink in
  if solution.Mincost_flow.flow <> !supply_total then
    failwith "Balancer: dual transshipment infeasible (graph bug)";
  solution

(* Network simplex from the longest-path levels finds an optimal flow;
   the levels are then read off that flow's residual network as
   potentials, a Bellman-Ford from 0 at every cell.  Those do not depend
   on which optimal flow was found (docs/THEORY.md §3), so they are the
   levels the reference solve gives too.  The reference's source and
   sink arcs are left out: an optimal flow saturates them, so they add
   no residual arc between cells and change no cell's potential. *)
let optimal_levels_arcs n arcs =
  let start = naive_levels_arcs n arcs in
  let m = List.length arcs in
  let src = Array.make m 0 and dst = Array.make m 0 and weight = Array.make m 0 in
  List.iteri
    (fun a (u, v, w) ->
      src.(a) <- u;
      dst.(a) <- v;
      weight.(a) <- w)
    arcs;
  let flow = Mcf.Network_simplex.optimal_flow ~src ~dst ~weight start in
  let net = cell_network n arcs in
  Array.iteri (Mincost_flow.set_flow net) flow;
  match Mincost_flow.potentials net with
  | None -> failwith "Balancer: negative cycle in optimal residual network"
  | Some pi ->
    let levels = Array.init n (fun v -> -pi.(v)) in
    let lowest = Array.fold_left min 0 levels in
    Array.map (fun l -> l - lowest) levels

let optimal_levels ?weight g =
  let levels = optimal_levels_arcs (Graph.node_count g) (arcs_of ?weight g) in
  if not (is_feasible ?weight g levels) then
    failwith "Balancer: optimal levels infeasible (duality bug)";
  levels

let dual_lower_bound ?weight g =
  let arcs = arcs_of ?weight g in
  let solution = solve_flow_arcs (Graph.node_count g) arcs in
  let weight_sum = List.fold_left (fun acc (_, _, w) -> acc + w) 0 arcs in
  -solution.Mincost_flow.cost - weight_sum

let insert_buffers ?(weight = default_weight) ?(skip = no_skip)
    ?(to_capacity = fun slack -> slack) g levels =
  if
    not
      (List.for_all
         (fun (u, v, w) -> levels.(v) - levels.(u) >= w)
         (arcs_of ~weight ~skip g))
  then invalid_arg "Balancer.insert_buffers: infeasible level assignment";
  let ng = Graph.create () in
  Graph.iter_nodes g (fun n ->
      let id = Graph.add ng ~label:n.Graph.label n.Graph.op n.Graph.inputs in
      assert (id = n.Graph.id));
  Graph.iter_nodes g (fun n ->
      let w = weight n in
      Array.iteri
        (fun slot dests ->
          List.iter
            (fun { Graph.ep_node = v; ep_port = port } ->
              let slack =
                if skip n.Graph.id v then 0
                else to_capacity (levels.(v) - levels.(n.Graph.id) - w)
              in
              if slack <= 0 then
                Graph.connect_slot ng ~src:n.Graph.id ~slot ~dst:v ~port
              else begin
                let fifo =
                  Graph.add ng
                    ~label:(Printf.sprintf "bal[%d->%d]" n.Graph.id v)
                    (Opcode.Fifo slack) [| Graph.In_arc |]
                  (* capacity already converted by [to_capacity] *)
                in
                Graph.connect_slot ng ~src:n.Graph.id ~slot ~dst:fifo ~port:0;
                Graph.connect ng ~src:fifo ~dst:v ~port
              end)
            dests)
        n.Graph.dests);
  ng

let balance ?(strategy = `Optimal) g =
  let levels =
    match strategy with
    | `Naive -> naive_levels g
    | `Reduced -> reduce_levels g (naive_levels g)
    | `Optimal -> optimal_levels g
  in
  insert_buffers g levels

(* Steady-state phase balancing (used by the compiler for graphs whose
   gates discard stream prefixes).  At the maximal rate, every rigid cell
   satisfies  phase(v) = phase(u) + 1 + 2*shift(u)  across an arc, where
   [shift u] is the wave position of the first element the gate at [u]
   forwards (0 for ordinary cells): the gate's k-th forwarded result is its
   (shift+k)-th firing, displacing the phase by two time units per skipped
   element (see the Figure 4 discussion in DESIGN.md).  A FIFO of capacity
   c absorbs up to 2c phase units, so slack converts to capacity by
   ceil(slack / 2). *)
let phase_weight ~shift n = 1 + (2 * shift n.Graph.id)

(* Feedback rings are rigid: every internal arc imposes the exact phase
   relation  phase(v) = phase(u) + w(u).  When that equality system is
   consistent around every cycle of the component (the companion scheme's
   even ring, where the token offsets encoded in the shifts make the cycle
   sums zero), the whole component moves as one rigid body: we solve the
   internal offsets by BFS and contract the component to a single LP
   variable.  When it is inconsistent (Todd's ring, intrinsically below
   the maximal rate), the component is self-timed: its internal arcs are
   left out of the LP entirely and never buffered. *)
type scc_info = {
  var_of : int array;       (* node -> LP variable (representative) *)
  delta : int array;        (* node -> offset within its rigid body *)
  self_timed : int -> int -> bool;  (* both endpoints in one inconsistent scc *)
}

let analyze_sccs g ~weight =
  let n = Graph.node_count g in
  let var_of = Array.init n Fun.id in
  let delta = Array.make n 0 in
  let comp = Hashtbl.create 16 in
  let inconsistent = Hashtbl.create 4 in
  List.iteri
    (fun ci nodes ->
      List.iter (fun v -> Hashtbl.replace comp v ci) nodes;
      (* internal equality propagation from the representative *)
      let rep = List.hd nodes in
      let member v = Hashtbl.find_opt comp v = Some ci in
      let d = Hashtbl.create 8 in
      Hashtbl.replace d rep 0;
      let queue = Queue.create () in
      Queue.add rep queue;
      let ok = ref true in
      while not (Queue.is_empty queue) do
        let u = Queue.pop queue in
        let du = Hashtbl.find d u in
        let w = weight (Graph.node g u) in
        List.iter
          (fun v ->
            if member v then
              match Hashtbl.find_opt d v with
              | Some dv -> if dv <> du + w then ok := false
              | None ->
                Hashtbl.replace d v (du + w);
                Queue.add v queue)
          (Analysis.successors g u)
      done;
      if !ok && List.for_all (fun v -> Hashtbl.mem d v) nodes then
        List.iter
          (fun v ->
            var_of.(v) <- rep;
            delta.(v) <- Hashtbl.find d v)
          nodes
      else Hashtbl.replace inconsistent ci ())
    (Analysis.cycles g);
  let self_timed u v =
    match (Hashtbl.find_opt comp u, Hashtbl.find_opt comp v) with
    | Some a, Some b -> a = b && Hashtbl.mem inconsistent a
    | _ -> false
  in
  { var_of; delta; self_timed }

let phase_balance ?(strategy = `Optimal) ~shift g =
  let weight = phase_weight ~shift in
  let n = Graph.node_count g in
  let info = analyze_sccs g ~weight in
  (* contracted arc list over LP variables; intra-rigid-body arcs vanish
     (their contracted weight is 0 between identical variables and they
     are satisfied by construction) *)
  let contracted =
    List.filter_map
      (fun (u, v, w) ->
        if info.self_timed u v then None
        else
          let cu = info.var_of.(u) and cv = info.var_of.(v) in
          if cu = cv then None
          else Some (cu, cv, w + info.delta.(u) - info.delta.(v)))
      (arcs_of ~weight g)
  in
  let var_levels =
    match strategy with
    | `Naive -> naive_levels_arcs n contracted
    | `Reduced -> reduce_levels_arcs n contracted (naive_levels_arcs n contracted)
    | `Optimal -> optimal_levels_arcs n contracted
  in
  let levels =
    Array.init n (fun v -> var_levels.(info.var_of.(v)) + info.delta.(v))
  in
  (* normalize (insert_buffers only needs feasibility, not positivity) *)
  let skip u v = info.self_timed u v || info.var_of.(u) = info.var_of.(v) in
  insert_buffers ~weight ~skip
    ~to_capacity:(fun slack -> if slack <= 0 then 0 else ((slack + 1) / 2) + 1)
    g levels
