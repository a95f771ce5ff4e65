open Dfg

exception Cyclic

let no_skip _ _ = false

(* An arc set on cells 0 .. n-1: arc a asks
   level dst.(a) - level src.(a) >= w.(a). *)
type arcs = { n : int; src : int array; dst : int array; w : int array }

let arcs_of_list n arcs =
  let arcs = Array.of_list arcs in
  { n; src = Array.map (fun (u, _, _) -> u) arcs;
    dst = Array.map (fun (_, v, _) -> v) arcs;
    w = Array.map (fun (_, _, w) -> w) arcs }

(* [f u slot d port] for every arc of [v] in the order of Graph's
   destination lists: cells and slots ascending, the last connected
   destination first. *)
let iter_arcs (v : View.t) f =
  for u = 0 to v.n - 1 do
    for k = v.slot_base.(u) to v.slot_base.(u + 1) - 1 do
      for a = v.dest_base.(k + 1) - 1 downto v.dest_base.(k) do
        f u (k - v.slot_base.(u)) v.dest_cell.(a) v.dest_port.(a)
      done
    done
  done

(* The arcs of [v] that [skip] keeps, weighted by [w] of their source. *)
let arcs_of_view (v : View.t) ~w ~skip =
  let m = v.dest_base.(v.slot_base.(v.n)) in
  let a =
    { n = v.n; src = Array.make m 0; dst = Array.make m 0; w = Array.make m 0 }
  in
  let k = ref 0 in
  iter_arcs v (fun u _ d _ ->
      if not (skip u d) then begin
        a.src.(!k) <- u;
        a.dst.(!k) <- d;
        a.w.(!k) <- w.(u);
        incr k
      end);
  if !k = m then a
  else
    { a with src = Array.sub a.src 0 !k; dst = Array.sub a.dst 0 !k;
      w = Array.sub a.w 0 !k }

let weights g =
  Array.init (Graph.node_count g) (fun u ->
      Analysis.node_delay (Graph.node g u))

let arcs_of g = arcs_of_view (View.of_graph g) ~w:(weights g) ~skip:no_skip

(* The arc indices grouped by cell [ends.(i)]: cell u's are
   idx.(base.(u) .. base.(u+1) - 1), ascending. *)
let group n ends =
  let base = Array.make (n + 1) 0 in
  Array.iter (fun u -> base.(u + 1) <- base.(u + 1) + 1) ends;
  for u = 1 to n do
    base.(u) <- base.(u) + base.(u - 1)
  done;
  let idx = Array.make (Array.length ends) 0 and fill = Array.sub base 0 n in
  Array.iteri
    (fun i u ->
      idx.(fill.(u)) <- i;
      fill.(u) <- fill.(u) + 1)
    ends;
  (base, idx)

(* Longest-path levels in Kahn's order; Cyclic when a cycle is left. *)
let naive_levels_arcs a =
  let out_base, out = group a.n a.src in
  let iter_out u f =
    for j = out_base.(u) to out_base.(u + 1) - 1 do
      f out.(j)
    done
  in
  let indeg = Array.make a.n 0 in
  Array.iter (fun v -> indeg.(v) <- indeg.(v) + 1) a.dst;
  let order =
    Analysis.kahn indeg (fun u f -> iter_out u (fun i -> f a.dst.(i)))
  in
  if Array.length order < a.n then raise Cyclic;
  let levels = Array.make a.n 0 in
  Array.iter
    (fun u ->
      iter_out u (fun i ->
          levels.(a.dst.(i)) <- max levels.(a.dst.(i)) (levels.(u) + a.w.(i))))
    order;
  levels

let naive_levels g = naive_levels_arcs (arcs_of g)

let slacks g levels =
  let a = arcs_of g in
  Array.mapi (fun i u -> levels.(a.dst.(i)) - levels.(u) - a.w.(i)) a.src

let is_feasible g levels = Array.for_all (fun s -> s >= 0) (slacks g levels)

let buffer_cost g levels = Array.fold_left ( + ) 0 (slacks g levels)

let reduce_levels_arcs a levels =
  let levels = Array.copy levels in
  let out_base, out = group a.n a.src and in_base, inc = group a.n a.dst in
  let sweep () =
    let moved = ref false in
    for v = 0 to a.n - 1 do
      let coeff =
        in_base.(v + 1) - in_base.(v) - (out_base.(v + 1) - out_base.(v))
      in
      if coeff <> 0 then begin
        let lb = ref min_int and ub = ref max_int in
        for j = in_base.(v) to in_base.(v + 1) - 1 do
          let i = inc.(j) in
          lb := max !lb (levels.(a.src.(i)) + a.w.(i))
        done;
        for j = out_base.(v) to out_base.(v + 1) - 1 do
          let i = out.(j) in
          ub := min !ub (levels.(a.dst.(i)) - a.w.(i))
        done;
        let target =
          if coeff > 0 then !lb (* shrinking level removes inbound slack *)
          else !ub
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
  let budget = ref (10 * (a.n + 1)) in
  while sweep () && !budget > 0 do
    decr budget
  done;
  levels

let reduce_levels g levels = reduce_levels_arcs (arcs_of g) levels

(* Optimal balancing as the LP dual of min-cost flow; see
   docs/THEORY.md §3.  The primal is  min Σ c_v l_v  s.t.  l_v - l_u >= w
   with c_v = indeg - outdeg; the dual is an exact-balance transshipment
   with per-arc reward w.  A refused certificate is a solver bug, raised
   as Failure, so no caller takes the levels for optimal. *)
let certify what a levels flow =
  match
    Mcf.Network_simplex.certify ~src:a.src ~dst:a.dst ~weight:a.w ~levels flow
  with
  | Ok () -> ()
  | Error e -> failwith ("Balancer: " ^ what ^ " levels not certified: " ^ e)

(* The canonical optimal levels: the least levels >= 0 that keep every
   arc feasible and every arc with flow tight, i.e. the shortest
   distances from 0 at every cell in [flow]'s residual network (each arc
   forward at -w, each arc with flow backward at +w), negated.  They are
   the same for every optimal flow (docs/THEORY.md §3), so the levels do
   not depend on the solver.  Bellman-Ford in arc order; it ends because
   the flow has just certified levels that meet all these constraints,
   so the residual network has no negative cycle. *)
let canonical_levels a flow =
  let levels = Array.make a.n 0 and changed = ref true in
  while !changed do
    changed := false;
    for i = 0 to Array.length a.src - 1 do
      let u = a.src.(i) and v = a.dst.(i) and w = a.w.(i) in
      if levels.(v) < levels.(u) + w then begin
        levels.(v) <- levels.(u) + w;
        changed := true
      end;
      if flow.(i) > 0 && levels.(u) < levels.(v) - w then begin
        levels.(u) <- levels.(v) - w;
        changed := true
      end
    done
  done;
  levels

(* The one optimal solve: network simplex from the longest-path levels
   finds optimal levels and an optimal flow, the flow certifies those
   levels, and then the canonical levels read off it. *)
let optimal_levels_of a =
  let levels = naive_levels_arcs a in
  let flow =
    Mcf.Network_simplex.optimal_flow ~src:a.src ~dst:a.dst ~weight:a.w levels
  in
  certify "network simplex" a levels flow;
  let canonical = canonical_levels a flow in
  certify "canonical" a canonical flow;
  (canonical, flow)

let optimal_levels_arcs n arcs = fst (optimal_levels_of (arcs_of_list n arcs))

let optimal_levels g = fst (optimal_levels_of (arcs_of g))

(* Σ w·f - Σ w: the dual objective of the certified flow, equal to the
   buffer count of its levels. *)
let dual_lower_bound g =
  let a = arcs_of g in
  let _, flow = optimal_levels_of a in
  let objective = ref 0 in
  Array.iteri (fun i w -> objective := !objective + (w * (flow.(i) - 1))) a.w;
  !objective

let levels_by strategy a =
  match strategy with
  | `Naive -> naive_levels_arcs a
  | `Reduced -> reduce_levels_arcs a (naive_levels_arcs a)
  | `Optimal -> fst (optimal_levels_of a)

(* The one build of a balanced graph: [v]'s cells keep their ids, and
   every arc, in the order of Graph's destination lists, is connected
   directly or through a FIFO of capacity [to_capacity slack], appended
   after the cells, when that is positive. *)
let build (v : View.t) ~w ~skip ~to_capacity levels =
  let g = View.cells v in
  iter_arcs v (fun u slot d port ->
      let slack =
        if skip u d then 0
        else
          let slack = levels.(d) - levels.(u) - w.(u) in
          if slack < 0 then
            invalid_arg "Balancer: infeasible level assignment";
          to_capacity slack
      in
      if slack <= 0 then Graph.connect_slot g ~src:u ~slot ~dst:d ~port
      else begin
        let fifo =
          Graph.add g
            ~label:("bal[" ^ string_of_int u ^ "->" ^ string_of_int d ^ "]")
            (Opcode.Fifo slack) [| Graph.In_arc |]
        in
        Graph.connect_slot g ~src:u ~slot ~dst:fifo ~port:0;
        Graph.connect g ~src:fifo ~dst:d ~port
      end);
  g

let balance ?(strategy = `Optimal) g =
  let v = View.of_graph g and w = weights g in
  build v ~w ~skip:no_skip ~to_capacity:Fun.id
    (levels_by strategy (arcs_of_view v ~w ~skip:no_skip))

(* Steady-state phase balancing (used by the compiler for graphs whose
   gates discard stream prefixes).  At the maximal rate, every rigid cell
   satisfies  phase(v) = phase(u) + 1 + 2*shift(u)  across an arc, where
   [shift u] is the wave position of the first element the gate at [u]
   forwards (0 for ordinary cells): the gate's k-th forwarded result is its
   (shift+k)-th firing, displacing the phase by two time units per skipped
   element (see the Figure 4 discussion in DESIGN.md).  A FIFO of capacity
   c absorbs up to 2c phase units, so slack converts to capacity by
   ceil(slack / 2). *)

(* Feedback rings are rigid: every internal arc imposes the exact phase
   relation  phase(v) = phase(u) + w(u).  When that equality system is
   consistent around every cycle of the ring (the companion scheme's
   even ring, where the token offsets encoded in the shifts make the cycle
   sums zero), the whole ring moves as one rigid body: we solve the
   internal offsets by BFS from the ring's Tarjan root and contract the
   ring to that one LP variable.  When it is inconsistent (Todd's ring,
   intrinsically below the maximal rate), the ring is self-timed: its
   internal arcs are left out of the LP entirely and never buffered.
   Returns each cell's LP variable (its ring's root, or itself), its
   offset within its rigid body, and which arcs the LP leaves out. *)
let analyze_sccs (v : View.t) ~w =
  let r = Analysis.rings v in
  let rings = Array.length r.Analysis.ring_base - 1 in
  let var_of = Array.init v.n Fun.id and delta = Array.make v.n 0 in
  let self_timed = Array.make rings false in
  let seen = Bytes.make v.n '\000' and queue = Array.make v.n 0 in
  for k = 0 to rings - 1 do
    let first = r.Analysis.ring_base.(k)
    and last = r.Analysis.ring_base.(k + 1) in
    let root = r.Analysis.members.(first) in
    Bytes.set seen root '\001';
    queue.(0) <- root;
    let head = ref 0 and tail = ref 1 and ok = ref true in
    while !head < !tail do
      let u = queue.(!head) in
      incr head;
      let du = delta.(u) + w.(u) in
      for i = v.succ_base.(u) to v.succ_base.(u + 1) - 1 do
        let s = v.succ.(i) in
        if r.Analysis.ring_of.(s) = k then
          if Bytes.get seen s <> '\000' then ok := !ok && delta.(s) = du
          else begin
            Bytes.set seen s '\001';
            delta.(s) <- du;
            queue.(!tail) <- s;
            incr tail
          end
      done
    done;
    for i = first to last - 1 do
      let u = r.Analysis.members.(i) in
      if !ok then var_of.(u) <- root else delta.(u) <- 0
    done;
    self_timed.(k) <- not !ok
  done;
  (* arcs inside a rigid body are satisfied by construction, arcs inside
     a self-timed ring are never buffered *)
  let skip u d =
    var_of.(u) = var_of.(d)
    ||
    let k = r.Analysis.ring_of.(u) in
    k >= 0 && k = r.Analysis.ring_of.(d) && self_timed.(k)
  in
  (var_of, delta, skip)

let phase_balance_view ?(strategy = `Optimal) ~shift (v : View.t) =
  let w = Array.init v.n (fun u -> 1 + (2 * shift u)) in
  let var_of, delta, skip = analyze_sccs v ~w in
  (* the LP runs on the variables; an arc keeps its constraint shifted
     by its ends' offsets *)
  let contracted = arcs_of_view v ~w ~skip in
  Array.iteri
    (fun i u ->
      let d = contracted.dst.(i) in
      contracted.src.(i) <- var_of.(u);
      contracted.dst.(i) <- var_of.(d);
      contracted.w.(i) <- contracted.w.(i) + delta.(u) - delta.(d))
    contracted.src;
  let var_levels = levels_by strategy contracted in
  let levels = Array.init v.n (fun u -> var_levels.(var_of.(u)) + delta.(u)) in
  build v ~w ~skip
    ~to_capacity:(fun slack -> if slack <= 0 then 0 else ((slack + 1) / 2) + 1)
    levels

let phase_balance ?strategy ~shift g =
  phase_balance_view ?strategy ~shift (View.of_graph g)
