(* Arcs are stored in flat arrays; arc 2i and 2i+1 are a forward/backward
   residual pair, and user arc id i names the pair.  The backward arc
   starts empty, so its residual capacity is the flow on the forward arc,
   and the source of any arc is the head of its partner. *)

type t = {
  n : int;
  mutable dst : int array;
  mutable cap : int array;  (* remaining residual capacity *)
  mutable cost : int array;
  mutable arc_count : int;
}

let create n =
  { n; dst = [||]; cap = [||]; cost = [||]; arc_count = 0 }

let grow a len = Array.append a (Array.make (max 16 len) 0)

let push_arc t ~dst ~cap ~cost =
  if Array.length t.dst = t.arc_count then begin
    let len = Array.length t.dst in
    t.dst <- grow t.dst len;
    t.cap <- grow t.cap len;
    t.cost <- grow t.cost len
  end;
  t.dst.(t.arc_count) <- dst;
  t.cap.(t.arc_count) <- cap;
  t.cost.(t.arc_count) <- cost;
  t.arc_count <- t.arc_count + 1

let add_arc t ~src ~dst ~capacity ~cost =
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
    invalid_arg "Mincost_flow.add_arc: endpoint out of range";
  if capacity < 0 then
    invalid_arg "Mincost_flow.add_arc: negative capacity";
  push_arc t ~dst ~cap:capacity ~cost;
  push_arc t ~dst:src ~cap:0 ~cost:(-cost);
  (t.arc_count / 2) - 1

type solution = { flow : int; cost : int }

let flow_on t id =
  if id < 0 || id >= t.arc_count / 2 then
    invalid_arg "Mincost_flow.flow_on: bad arc id";
  t.cap.((2 * id) + 1)

(* Bellman-Ford over the residual network, relaxing the arcs in storage
   order until nothing moves; false if a pass still moves after [n]. *)
let bf_relax_all t dist =
  let relax () =
    let changed = ref false in
    for a = 0 to t.arc_count - 1 do
      let u = t.dst.(a lxor 1) and v = t.dst.(a) in
      if t.cap.(a) > 0 && dist.(u) < max_int && dist.(u) + t.cost.(a) < dist.(v)
      then begin
        dist.(v) <- dist.(u) + t.cost.(a);
        changed := true
      end
    done;
    !changed
  in
  let rec run i =
    if i > t.n then false else if relax () then run (i + 1) else true
  in
  run 0

let residual_shortest_distances t ~root =
  let dist = Array.make t.n max_int in
  dist.(root) <- 0;
  if bf_relax_all t dist then Some dist else None

let potentials t =
  let dist = Array.make t.n 0 in
  if bf_relax_all t dist then Some dist else None

(* CSR index of the residual arcs by source: the arcs leaving [u] are
   [adj.(first.(u)) .. adj.(first.(u + 1) - 1)]. *)
let csr t =
  let first = Array.make (t.n + 1) 0 in
  for a = 0 to t.arc_count - 1 do
    let u = t.dst.(a lxor 1) in
    first.(u + 1) <- first.(u + 1) + 1
  done;
  for u = 1 to t.n do
    first.(u) <- first.(u) + first.(u - 1)
  done;
  let fill = Array.sub first 0 t.n and adj = Array.make t.arc_count 0 in
  for a = 0 to t.arc_count - 1 do
    let u = t.dst.(a lxor 1) in
    adj.(fill.(u)) <- a;
    fill.(u) <- fill.(u) + 1
  done;
  (first, adj)

(* Primal-dual: with potentials [pi] keeping every residual arc's reduced
   cost [cost + pi(src) - pi(dst)] non-negative, a path of zero-reduced-
   cost arcs is a shortest path.  Push flow by DFS along such paths until
   none reaches the sink; then the DFS-reached set is cut off from the
   sink by arcs of positive reduced cost, and lowering its potentials by
   the least of them makes at least one admissible.  Augmenting keeps
   reduced costs non-negative, since a reversed arc had reduced cost 0. *)
let min_cost_max_flow t ~source ~sink =
  if source = sink then invalid_arg "Mincost_flow: source = sink";
  let pi =
    match potentials t with
    | Some pi -> pi
    | None -> failwith "Mincost_flow: negative cycle"
  in
  let first, adj = csr t in
  let reduced a = t.cost.(a) + pi.(t.dst.(a lxor 1)) - pi.(t.dst.(a)) in
  let seen = Array.make t.n false in
  let rec push u limit =
    if u = sink then limit
    else begin
      seen.(u) <- true;
      let pushed = ref 0 and i = ref first.(u) in
      while !pushed < limit && !i < first.(u + 1) do
        let a = adj.(!i) in
        let v = t.dst.(a) in
        if t.cap.(a) > 0 && (not seen.(v)) && reduced a = 0 then begin
          let d = push v (min t.cap.(a) (limit - !pushed)) in
          t.cap.(a) <- t.cap.(a) - d;
          t.cap.(a lxor 1) <- t.cap.(a lxor 1) + d;
          pushed := !pushed + d
        end;
        incr i
      done;
      !pushed
    end
  in
  (* least reduced cost over residual arcs leaving the reached set *)
  let least_leaving () =
    let least = ref max_int in
    for u = 0 to t.n - 1 do
      if seen.(u) then
        for i = first.(u) to first.(u + 1) - 1 do
          let a = adj.(i) in
          if t.cap.(a) > 0 && not seen.(t.dst.(a)) then
            least := min !least (reduced a)
        done
    done;
    !least
  in
  let rec solve flow cost =
    Array.fill seen 0 t.n false;
    let f = push source max_int in
    if f > 0 then solve (flow + f) (cost + (f * (pi.(sink) - pi.(source))))
    else
      let delta = least_leaving () in
      if delta = max_int then { flow; cost }
      else begin
        Array.iteri (fun u s -> if s then pi.(u) <- pi.(u) - delta) seen;
        solve flow cost
      end
  in
  solve 0 0
