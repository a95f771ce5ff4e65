let live (v : View.t) =
  let live = Array.make v.n false and queue = Array.make v.n 0 in
  let tail = ref 0 in
  for c = 0 to v.n - 1 do
    match View.op v c with
    | Opcode.Output _ ->
      live.(c) <- true;
      queue.(!tail) <- c;
      incr tail
    | Opcode.Input _ -> live.(c) <- true
    | _ -> ()
  done;
  let head = ref 0 in
  while !head < !tail do
    let c = queue.(!head) in
    incr head;
    for i = v.pred_base.(c) to v.pred_base.(c + 1) - 1 do
      let p = v.pred.(i) in
      if not live.(p) then begin
        live.(p) <- true;
        queue.(!tail) <- p;
        incr tail
      end
    done
  done;
  live

(* Canonical key of a cell: opcode + per-port binding where arc ports are
   resolved to the representative of their producer.  Processing the live
   cells outside rings in topological order guarantees producers are
   canonicalized first; cells in rings are excluded (their keys would be
   self-referential), and a cell fed by one is never merged. *)

type port_key = K_const of Value.t | K_arc of int * int

let representatives (v : View.t) ~live =
  let rings = Analysis.rings v in
  let in_ring c = rings.Analysis.ring_of.(c) >= 0 in
  let keep = Array.mapi (fun c l -> l && not (in_ring c)) live in
  let rep = Array.init v.n Fun.id in
  let table = Hashtbl.create 64 in
  Array.iter
    (fun c ->
      let mergeable =
        match View.op v c with
        | Opcode.Input _ | Opcode.Output _ | Opcode.Sink -> false
        | _ -> true
      in
      if mergeable then begin
        let node = View.node v c in
        let key_ok = ref true in
        let ports =
          Array.mapi
            (fun port binding ->
              match binding with
              | Graph.In_const x -> K_const x
              | Graph.In_arc | Graph.In_arc_init _ ->
                let p = v.port_base.(c) + port in
                let src = v.producer.(p) in
                if v.producers.(p) <> 1 || in_ring src then begin
                  key_ok := false;
                  K_arc (-1, -1)
                end
                else K_arc (rep.(src), v.producer_slot.(p)))
            node.Graph.inputs
        in
        (* preloaded tokens are load-time state: include them in the key *)
        let init_state =
          Array.map
            (function Graph.In_arc_init x -> Some x | _ -> None)
            node.Graph.inputs
        in
        if !key_ok then begin
          let key = (node.Graph.op, ports, init_state) in
          match Hashtbl.find_opt table key with
          | Some canonical -> rep.(c) <- canonical
          | None -> Hashtbl.add table key c
        end
      end)
    (Analysis.order v ~keep);
  rep

let cse_stats g =
  let v = View.of_graph g in
  let rep = representatives v ~live:(Array.make v.n true) in
  let merged = ref 0 in
  Array.iteri (fun c r -> if c <> r then incr merged) rep;
  !merged
