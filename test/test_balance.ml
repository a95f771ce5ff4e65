(* Min-cost flow and balancing tests, including the paper's Section 8
   claims: naive >= reduced >= optimal = LP dual bound, and that balanced
   graphs run fully pipelined.  Successive shortest paths
   (test/mincost_flow.ml) is the oracle the balancer's certified optimum
   is compared with. *)

open Dfg
open Sim

(* ------------------------------------------------------------------ *)
(* Min-cost flow (the successive-shortest-paths oracle)                 *)
(* ------------------------------------------------------------------ *)

let test_mcf_simple () =
  (* two parallel paths, cheap one has low capacity *)
  let net = Mincost_flow.create 4 in
  let e_cheap = Mincost_flow.add_arc net ~src:0 ~dst:1 ~capacity:2 ~cost:1 in
  let e_dear = Mincost_flow.add_arc net ~src:0 ~dst:2 ~capacity:5 ~cost:3 in
  let e1 = Mincost_flow.add_arc net ~src:1 ~dst:3 ~capacity:2 ~cost:0 in
  let e2 = Mincost_flow.add_arc net ~src:2 ~dst:3 ~capacity:5 ~cost:0 in
  let s = Mincost_flow.min_cost_max_flow net ~source:0 ~sink:3 in
  Alcotest.(check int) "flow" 7 s.Mincost_flow.flow;
  Alcotest.(check int) "cost" ((2 * 1) + (5 * 3)) s.Mincost_flow.cost;
  Alcotest.(check int) "cheap saturated" 2 (Mincost_flow.flow_on net e_cheap);
  Alcotest.(check int) "dear used" 5 (Mincost_flow.flow_on net e_dear);
  Alcotest.(check int) "e1" 2 (Mincost_flow.flow_on net e1);
  Alcotest.(check int) "e2" 5 (Mincost_flow.flow_on net e2)

let test_mcf_prefers_cheap () =
  let net = Mincost_flow.create 2 in
  let _ = Mincost_flow.add_arc net ~src:0 ~dst:1 ~capacity:10 ~cost:5 in
  let _ = Mincost_flow.add_arc net ~src:0 ~dst:1 ~capacity:3 ~cost:1 in
  let s = Mincost_flow.min_cost_max_flow net ~source:0 ~sink:1 in
  Alcotest.(check int) "flow" 13 s.Mincost_flow.flow;
  Alcotest.(check int) "cost" ((3 * 1) + (10 * 5)) s.Mincost_flow.cost

let test_mcf_negative_costs () =
  (* negative-cost arc in a DAG: must be exploited *)
  let net = Mincost_flow.create 3 in
  let _ = Mincost_flow.add_arc net ~src:0 ~dst:1 ~capacity:4 ~cost:(-2) in
  let _ = Mincost_flow.add_arc net ~src:1 ~dst:2 ~capacity:4 ~cost:1 in
  let _ = Mincost_flow.add_arc net ~src:0 ~dst:2 ~capacity:4 ~cost:0 in
  let s = Mincost_flow.min_cost_max_flow net ~source:0 ~sink:2 in
  Alcotest.(check int) "flow" 8 s.Mincost_flow.flow;
  Alcotest.(check int) "cost" (-4) s.Mincost_flow.cost

let test_mcf_residual_distances () =
  let net = Mincost_flow.create 3 in
  let _ = Mincost_flow.add_arc net ~src:0 ~dst:1 ~capacity:2 ~cost:4 in
  let _ = Mincost_flow.add_arc net ~src:1 ~dst:2 ~capacity:2 ~cost:1 in
  let _ = Mincost_flow.add_arc net ~src:0 ~dst:2 ~capacity:1 ~cost:9 in
  (match Mincost_flow.residual_shortest_distances net ~root:0 with
  | Some d ->
    Alcotest.(check int) "d(1)" 4 d.(1);
    Alcotest.(check int) "d(2)" 5 d.(2)
  | None -> Alcotest.fail "no negative cycle expected");
  let _ = Mincost_flow.min_cost_max_flow net ~source:0 ~sink:2 in
  (* after an optimal flow the residual network still has no negative
     cycle, and potentials exist *)
  match Mincost_flow.potentials net with
  | Some _ -> ()
  | None -> Alcotest.fail "optimal flow must admit potentials"

let test_mcf_disconnected () =
  let net = Mincost_flow.create 3 in
  let _ = Mincost_flow.add_arc net ~src:0 ~dst:1 ~capacity:1 ~cost:1 in
  let s = Mincost_flow.min_cost_max_flow net ~source:0 ~sink:2 in
  Alcotest.(check int) "no flow" 0 s.Mincost_flow.flow

(* ------------------------------------------------------------------ *)
(* Balancing                                                            *)
(* ------------------------------------------------------------------ *)

(* Random layered DAG builder: [layers] layers of [width] arithmetic cells;
   each cell reads two random cells from any earlier layer (or an input),
   all terminal cells join into a tree feeding one output.  Deterministic
   via a seed. *)
let random_dag ~seed ~layers ~width =
  let rng = Random.State.make [| seed |] in
  let g = Graph.create () in
  let input = Graph.add g (Opcode.Input "a") [||] in
  let all = ref [ input ] in
  for _ = 1 to layers do
    let layer =
      List.init width (fun _ ->
          let pool = Array.of_list !all in
          let pick () = pool.(Random.State.int rng (Array.length pool)) in
          let n =
            Graph.add g (Opcode.Arith Opcode.Add)
              [| Graph.In_arc; Graph.In_arc |]
          in
          Graph.connect g ~src:(pick ()) ~dst:n ~port:0;
          Graph.connect g ~src:(pick ()) ~dst:n ~port:1;
          n)
    in
    all := layer @ !all
  done;
  (* join all cells with no successors into one output *)
  let sinks =
    List.filter (fun id -> Analysis.successors g id = []) !all
  in
  let rec join = function
    | [] -> assert false
    | [ x ] -> x
    | x :: y :: rest ->
      let n =
        Graph.add g (Opcode.Arith Opcode.Add)
          [| Graph.In_arc; Graph.In_arc |]
      in
      Graph.connect g ~src:x ~dst:n ~port:0;
      Graph.connect g ~src:y ~dst:n ~port:1;
      join (rest @ [ n ])
  in
  let root = join sinks in
  let out = Graph.add g (Opcode.Output "r") [| Graph.In_arc |] in
  Graph.connect g ~src:root ~dst:out ~port:0;
  g

(* Every arc of [g] as balancing sees it, [(src, dst, weight)]: one per
   destination, weighted by its source's delay. *)
let graph_arcs g =
  Graph.fold_nodes g ~init:[] ~f:(fun acc (node : Graph.node) ->
      let w = Analysis.node_delay node in
      Array.fold_left
        (List.fold_left (fun acc { Graph.ep_node; _ } ->
             (node.Graph.id, ep_node, w) :: acc))
        acc node.Graph.dests)

(* The reference solve, by the other algorithm: the dual transshipment
   of arcs [(src, dst, weight)] on nodes 0..n-1 (node balance indegree -
   outdegree, arc cost -weight) solved by successive shortest paths.
   Returns the potentials of its residual network as levels, and its
   dual objective Σ w·f - Σ w. *)
let ssp_reference n arcs =
  let module M = Mincost_flow in
  let net = M.create (n + 2) and source = n and sink = n + 1 in
  (* more than any arc can carry: the total supply is at most the arc count *)
  let capacity = List.length arcs + 1 in
  List.iter
    (fun (u, v, w) -> ignore (M.add_arc net ~src:u ~dst:v ~capacity ~cost:(-w)))
    arcs;
  let balance = Array.make n 0 in
  List.iter
    (fun (u, v, _) ->
      balance.(v) <- balance.(v) + 1;
      balance.(u) <- balance.(u) - 1)
    arcs;
  Array.iteri
    (fun v b ->
      if b > 0 then ignore (M.add_arc net ~src:v ~dst:sink ~capacity:b ~cost:0)
      else if b < 0 then
        ignore (M.add_arc net ~src:source ~dst:v ~capacity:(-b) ~cost:0))
    balance;
  let solution = M.min_cost_max_flow net ~source ~sink in
  match M.potentials net with
  | None -> failwith "reference flow leaves a negative cycle"
  | Some pi ->
    let levels = Array.init n (fun v -> -pi.(v)) in
    let lowest = Array.fold_left min 0 levels in
    let weights = List.fold_left (fun acc (_, _, w) -> acc + w) 0 arcs in
    (Array.map (fun l -> l - lowest) levels, -solution.M.cost - weights)

(* The buffer stages any balancing of [g] needs, by the oracle. *)
let ssp_bound g = snd (ssp_reference (Graph.node_count g) (graph_arcs g))

let test_levels_feasible () =
  List.iter
    (fun seed ->
      let g = random_dag ~seed ~layers:5 ~width:4 in
      let naive = Balance.Balancer.naive_levels g in
      Alcotest.(check bool) "naive feasible" true
        (Balance.Balancer.is_feasible g naive);
      let reduced = Balance.Balancer.reduce_levels g naive in
      Alcotest.(check bool) "reduced feasible" true
        (Balance.Balancer.is_feasible g reduced);
      let optimal = Balance.Balancer.optimal_levels g in
      Alcotest.(check bool) "optimal feasible" true
        (Balance.Balancer.is_feasible g optimal))
    [ 1; 2; 3; 4; 5 ]

let test_cost_ordering () =
  List.iter
    (fun seed ->
      let g = random_dag ~seed ~layers:6 ~width:5 in
      let cost l = Balance.Balancer.buffer_cost g l in
      let naive = cost (Balance.Balancer.naive_levels g) in
      let reduced =
        cost
          (Balance.Balancer.reduce_levels g (Balance.Balancer.naive_levels g))
      in
      let optimal = cost (Balance.Balancer.optimal_levels g) in
      let bound = ssp_bound g in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: naive %d >= reduced %d" seed naive reduced)
        true (naive >= reduced);
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: reduced %d >= optimal %d" seed reduced
           optimal)
        true (reduced >= optimal);
      Alcotest.(check int)
        (Printf.sprintf "seed %d: optimal = dual bound (strong duality)" seed)
        bound optimal;
      Alcotest.(check int)
        (Printf.sprintf "seed %d: certified flow's dual objective" seed)
        bound (Balance.Balancer.dual_lower_bound g))
    [ 7; 11; 13; 17; 23; 42 ]

let contains s sub =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
  in
  at 0

(* The certificate bites.  Network simplex's levels and flow on a random
   DAG certify each other; each mutant below breaks one condition of the
   certificate alone and must be refused with a message naming the arc
   or node at fault.  One unit of flow moved off an arc breaks
   conservation at its ends; the output cell's level nudged down makes
   its in-arc, which carries flow, infeasible; one unit of flow put on
   an arc with slack breaks complementary slackness, and one taken off
   such an arc, leaving -1, breaks the flow's sign. *)
let test_certificate_refuses_mutants () =
  let module NS = Mcf.Network_simplex in
  List.iter
    (fun seed ->
      let g = random_dag ~seed ~layers:6 ~width:5 in
      let arcs = Array.of_list (graph_arcs g) in
      let all = List.init (Array.length arcs) Fun.id in
      let src = Array.map (fun (u, _, _) -> u) arcs
      and dst = Array.map (fun (_, v, _) -> v) arcs
      and weight = Array.map (fun (_, _, w) -> w) arcs in
      let levels = Balance.Balancer.naive_levels g in
      let flow = NS.optimal_flow ~src ~dst ~weight levels in
      let certify levels flow = NS.certify ~src ~dst ~weight ~levels flow in
      Alcotest.(check (result unit string))
        (Printf.sprintf "seed %d: the solve certifies" seed)
        (Ok ()) (certify levels flow);
      let arc a = Printf.sprintf "arc %d " a
      and node x = Printf.sprintf "node %d:" x in
      let refused what ~names levels flow =
        match certify levels flow with
        | Ok () -> Alcotest.failf "seed %d, %s: certified" seed what
        | Error e ->
          if not (List.exists (contains e) names) then
            Alcotest.failf "seed %d, %s: %S names none of %s" seed what e
              (String.concat ", " names)
      in
      let first p =
        match List.find_opt p all with
        | Some a -> a
        | None -> Alcotest.failf "seed %d: no arc to mutate" seed
      in
      let with_flow a d =
        let f = Array.copy flow in
        f.(a) <- f.(a) + d;
        f
      in
      let carrying = first (fun a -> flow.(a) > 0)
      and slack_arc =
        first (fun a -> levels.(dst.(a)) - levels.(src.(a)) > weight.(a))
      in
      refused "one unit of flow moved off an arc"
        ~names:[ node src.(carrying); node dst.(carrying) ]
        levels (with_flow carrying (-1));
      let x = dst.(first (fun a -> not (Array.mem dst.(a) src))) in
      let nudged = Array.copy levels in
      nudged.(x) <- nudged.(x) - 1;
      refused "the output cell's level nudged"
        ~names:
          (List.filter_map
             (fun a -> if dst.(a) = x then Some (arc a) else None)
             all)
        nudged flow;
      refused "one unit of flow put on an arc with slack"
        ~names:[ arc slack_arc ] levels (with_flow slack_arc 1);
      refused "one unit of flow taken off an arc with slack"
        ~names:[ arc slack_arc ] levels (with_flow slack_arc (-1)))
    [ 7; 11; 13 ]

let test_optimal_exact_small () =
  (* Hand-checkable: input fans to a 1-cell arm and a 3-cell arm joining
     at an ADD; optimal balancing needs exactly 2 buffer stages. *)
  let g = Graph.create () in
  let a = Graph.add g (Opcode.Input "a") [||] in
  let short = Graph.add g Opcode.Id [| Graph.In_arc |] in
  Graph.connect g ~src:a ~dst:short ~port:0;
  let l1 = Graph.add g Opcode.Id [| Graph.In_arc |] in
  let l2 = Graph.add g Opcode.Id [| Graph.In_arc |] in
  let l3 = Graph.add g Opcode.Id [| Graph.In_arc |] in
  Graph.connect g ~src:a ~dst:l1 ~port:0;
  Graph.connect g ~src:l1 ~dst:l2 ~port:0;
  Graph.connect g ~src:l2 ~dst:l3 ~port:0;
  let join =
    Graph.add g (Opcode.Arith Opcode.Add) [| Graph.In_arc; Graph.In_arc |]
  in
  Graph.connect g ~src:short ~dst:join ~port:0;
  Graph.connect g ~src:l3 ~dst:join ~port:1;
  let out = Graph.add g (Opcode.Output "r") [| Graph.In_arc |] in
  Graph.connect g ~src:join ~dst:out ~port:0;
  let optimal = Balance.Balancer.optimal_levels g in
  Alcotest.(check int) "2 stages" 2
    (Balance.Balancer.buffer_cost g optimal)

let test_insert_buffers_balances () =
  List.iter
    (fun seed ->
      let g = random_dag ~seed ~layers:4 ~width:3 in
      let balanced = Balance.Balancer.balance ~strategy:`Optimal g in
      (match Analysis.strict_balance_check balanced with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "seed %d: not balanced: %s" seed msg);
      (* and it runs fully pipelined *)
      let n = 200 in
      let result =
        Engine.run_cfg Run_config.default balanced
          ~inputs:[ ("a", List.init n (fun i -> Value.Int i)) ]
      in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d fully pipelined" seed)
        true
        (Metrics.fully_pipelined result "r"))
    [ 3; 9; 27 ]

let test_values_unchanged_by_balancing () =
  let g = random_dag ~seed:5 ~layers:4 ~width:3 in
  let n = 50 in
  let inputs = [ ("a", List.init n (fun i -> Value.Int (i + 1))) ] in
  let raw = Engine.run_cfg Run_config.default g ~inputs in
  List.iter
    (fun strategy ->
      let b = Balance.Balancer.balance ~strategy g in
      let res = Engine.run_cfg Run_config.default b ~inputs in
      Alcotest.(check (list int)) "same values"
        (List.map
           (function Value.Int i -> i | _ -> -1)
           (Engine.output_values raw "r"))
        (List.map
           (function Value.Int i -> i | _ -> -1)
           (Engine.output_values res "r")))
    [ `Naive; `Reduced; `Optimal ]

let test_cyclic_rejected () =
  let g = Graph.create () in
  let a = Graph.add g Opcode.Id [| Graph.In_arc_init (Value.Int 0) |] in
  let b = Graph.add g Opcode.Id [| Graph.In_arc |] in
  Graph.connect g ~src:a ~dst:b ~port:0;
  Graph.connect g ~src:b ~dst:a ~port:0;
  (match Balance.Balancer.naive_levels g with
  | _ -> Alcotest.fail "expected Cyclic"
  | exception Balance.Balancer.Cyclic -> ());
  match Balance.Balancer.optimal_levels g with
  | _ -> Alcotest.fail "expected Cyclic"
  | exception Balance.Balancer.Cyclic -> ()

let test_fifo_weights_respected () =
  (* A pre-existing FIFO(3) counts as 3 stages of delay. *)
  let g = Graph.create () in
  let a = Graph.add g (Opcode.Input "a") [||] in
  let f = Graph.add g (Opcode.Fifo 3) [| Graph.In_arc |] in
  Graph.connect g ~src:a ~dst:f ~port:0;
  let s = Graph.add g Opcode.Id [| Graph.In_arc |] in
  Graph.connect g ~src:a ~dst:s ~port:0;
  let join =
    Graph.add g (Opcode.Arith Opcode.Add) [| Graph.In_arc; Graph.In_arc |]
  in
  Graph.connect g ~src:f ~dst:join ~port:0;
  Graph.connect g ~src:s ~dst:join ~port:1;
  let out = Graph.add g (Opcode.Output "r") [| Graph.In_arc |] in
  Graph.connect g ~src:join ~dst:out ~port:0;
  let optimal = Balance.Balancer.optimal_levels g in
  (* short arm needs 2 more stages to match FIFO(3) *)
  Alcotest.(check int) "stages" 2 (Balance.Balancer.buffer_cost g optimal)

let suite =
  [
    Alcotest.test_case "mcf simple network" `Quick test_mcf_simple;
    Alcotest.test_case "mcf prefers cheap arcs" `Quick test_mcf_prefers_cheap;
    Alcotest.test_case "mcf negative costs" `Quick test_mcf_negative_costs;
    Alcotest.test_case "mcf disconnected" `Quick test_mcf_disconnected;
    Alcotest.test_case "mcf residual distances and potentials" `Quick
      test_mcf_residual_distances;
    Alcotest.test_case "levels feasible" `Quick test_levels_feasible;
    Alcotest.test_case "cost ordering naive>=reduced>=optimal=dual" `Quick
      test_cost_ordering;
    Alcotest.test_case "optimal exact on small graph" `Quick
      test_optimal_exact_small;
    Alcotest.test_case "balanced graphs run at max rate" `Quick
      test_insert_buffers_balances;
    Alcotest.test_case "balancing preserves values" `Quick
      test_values_unchanged_by_balancing;
    Alcotest.test_case "cyclic graphs rejected" `Quick test_cyclic_rejected;
    Alcotest.test_case "FIFO weights respected" `Quick
      test_fifo_weights_respected;
    Alcotest.test_case "certificate refuses flow and level mutants" `Quick
      test_certificate_refuses_mutants;
  ]
