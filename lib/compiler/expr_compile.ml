open Dfg
module A = Val_lang.Ast
module Eval = Val_lang.Eval

exception Unsupported of string

let fail fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt

type rval = Const of Value.t | Stream of int * int

type array_src = { src_node : int; src_ranges : (int * int) list }

type block_ctx = {
  g : Graph.t;
  shifts : (int, int) Hashtbl.t;
  windows : (string * int list * bool array option, rval) Hashtbl.t;
  iotas : (string, rval) Hashtbl.t;
  params : (string * Value.t) list;
  arrays : (string * array_src) list;
  index_vars : (string * int * int) list;
  points : (string * int) list array Lazy.t;
      (* index assignment per flat output position, row-major *)
}

(* Conditional arms come in two flavours (Figures 5 and 6):
   - [Static]: the condition depends only on index variables and params,
     so each arm's index set is a compile-time [mask] over the flat output
     space; operands entering the arm pass a T-gate driven by the mask
     pattern, and the recombining merge is driven by the same pattern —
     the paper's boolean control sequences.  [mask] is stored already
     intersected with every enclosing static mask.
   - [Dynamic]: a data-dependent condition; operands are routed through a
     [Switch] shared by the two sibling arms. *)
type layer =
  | Static of { mask : bool array; gates : (int * int, int) Hashtbl.t }
  | Dynamic of {
      ctl : rval;
      polarity : bool;
      switches : (int * int, int) Hashtbl.t;
    }

type env = {
  bindings : (string * (rval * int)) list;
  statics : (string * A.expr) list;  (* index-only definitions, inlined *)
  layers : layer list;               (* innermost first *)
}

let top_env = { bindings = []; statics = []; layers = [] }

let bind env name rv =
  { env with bindings = (name, (rv, List.length env.layers)) :: env.bindings }

let flat_size index_vars =
  List.fold_left (fun acc (_, lo, hi) -> acc * (hi - lo + 1)) 1 index_vars

let enumerate_points index_vars =
  let total = flat_size index_vars in
  let points = Array.make total [] in
  for k = 0 to total - 1 do
    let rec coords k = function
      | [] -> []
      | (v, lo, hi) :: rest ->
        let inner = flat_size rest in
        ((v, lo + (k / inner mod (hi - lo + 1))) :: coords (k mod inner) rest)
    in
    points.(k) <- coords k index_vars
  done;
  points

let new_block_ctx g ~params ~arrays ~index_vars =
  {
    g;
    shifts = Hashtbl.create 16;
    windows = Hashtbl.create 16;
    iotas = Hashtbl.create 4;
    params;
    arrays;
    index_vars;
    points = lazy (enumerate_points index_vars);
  }

let binding_for = function
  | Const v -> Graph.In_const v
  | Stream _ -> Graph.In_arc

let connect_rval ctx rv ~dst ~port =
  match rv with
  | Const _ -> ()
  | Stream (src, slot) -> Graph.connect_slot ctx.g ~src ~slot ~dst ~port

let add_node ctx ?label op rvs =
  let id = Graph.add ctx.g ?label op (Array.map binding_for rvs) in
  Array.iteri (fun port rv -> connect_rval ctx rv ~dst:id ~port) rvs;
  id

(* ------------------------------------------------------------------ *)
(* Masks and control patterns                                           *)
(* ------------------------------------------------------------------ *)

(* [mask] at the positions selected by [within] (all when [None]). *)
let visible ?within mask =
  match within with
  | None -> mask
  | Some w ->
    let k = ref 0 in
    let out = Array.make (Array.length mask) false in
    Array.iteri
      (fun p m ->
        if w.(p) then begin
          out.(!k) <- m;
          incr k
        end)
      mask;
    Array.sub out 0 !k

(* Run-length pattern of the visible part of [mask]. *)
let pattern_within ?within mask =
  let runs = ref [] in
  Array.iter
    (fun m ->
      match !runs with
      | (v, c) :: rest when v = m -> runs := (v, c + 1) :: rest
      | _ -> runs := (m, 1) :: !runs)
    (visible ?within mask);
  Ctlseq.make ~cyclic:true (List.rev !runs)

let first_true_within ?within mask =
  let m = visible ?within mask in
  let rec go k =
    if k >= Array.length m then 0 else if m.(k) then k else go (k + 1)
  in
  go 0

(* Gate a stream down to the positions of [mask] (relative to [within]). *)
let mask_gate ctx ~label ?within ~mask rv =
  let pattern = pattern_within ?within mask in
  let ctl = Graph.add ctx.g ~label:(label ^ ".ctl") (Opcode.Bool_source pattern) [||] in
  let gate = add_node ctx ~label Opcode.Tgate [| Stream (ctl, 0); rv |] in
  Hashtbl.replace ctx.shifts gate (first_true_within ?within mask);
  Stream (gate, 0)

(* Innermost static mask visible in [env] (masks are pre-intersected). *)
let enclosing_mask env =
  let rec find = function
    | [] -> None
    | Static { mask; _ } :: _ -> Some mask
    | Dynamic _ :: rest -> find rest
  in
  find env.layers

let has_dynamic env =
  List.exists (function Dynamic _ -> true | Static _ -> false) env.layers

(* Bring a stream bound at layer-depth [depth] into the current arm. *)
let adapt ctx env (rv, depth) =
  match rv with
  | Const _ -> rv
  | Stream _ ->
    let outer_first = List.rev env.layers in
    (* track the enclosing mask as we pass static layers *)
    let rec apply k within layers rv =
      match layers with
      | [] -> rv
      | layer :: rest ->
        let next_within =
          match layer with
          | Static { mask; _ } -> Some mask
          | Dynamic _ -> within
        in
        if k < depth then apply (k + 1) next_within rest rv
        else begin
          let key =
            match rv with Stream (n, s) -> (n, s) | Const _ -> assert false
          in
          let rv =
            match layer with
            | Static { mask; gates } ->
              let gate =
                match Hashtbl.find_opt gates key with
                | Some g -> Stream (g, 0)
                | None ->
                  let g = mask_gate ctx ~label:"arm" ?within ~mask rv in
                  (match g with
                  | Stream (n, _) -> Hashtbl.add gates key n
                  | Const _ -> ());
                  g
              in
              gate
            | Dynamic { ctl; polarity; switches } ->
              let sw =
                match Hashtbl.find_opt switches key with
                | Some sw -> sw
                | None ->
                  let sw =
                    add_node ctx ~label:"SWITCH" Opcode.Switch [| ctl; rv |]
                  in
                  Hashtbl.add switches key sw;
                  sw
              in
              Stream (sw, if polarity then 0 else 1)
          in
          apply (k + 1) next_within rest rv
        end
    in
    apply 0 None outer_first rv

let adapt_dynamics_only ctx env rv =
  (* apply only the Dynamic layers (the stream already accounts for every
     static mask) *)
  let outer_first = List.rev env.layers in
  List.fold_left
    (fun rv layer ->
      match (layer, rv) with
      | Static _, _ | _, Const _ -> rv
      | Dynamic { ctl; polarity; switches }, Stream (n, s) ->
        let key = (n, s) in
        let sw =
          match Hashtbl.find_opt switches key with
          | Some sw -> sw
          | None ->
            let sw = add_node ctx ~label:"SWITCH" Opcode.Switch [| ctl; rv |] in
            Hashtbl.add switches key sw;
            sw
        in
        Stream (sw, if polarity then 0 else 1))
    rv outer_first

(* ------------------------------------------------------------------ *)
(* Static condition evaluation                                          *)
(* ------------------------------------------------------------------ *)

let eval_value_of = function
  | Value.Int i -> Eval.VInt i
  | Value.Real f -> Eval.VReal f
  | Value.Bool b -> Eval.VBool b

(* Is the (already let-inlined and static-substituted) expression a pure
   function of index variables and params? *)
let rec index_only ctx expr =
  match expr with
  | A.Int_lit _ | A.Real_lit _ | A.Bool_lit _ -> true
  | A.Var name ->
    List.mem_assoc name ctx.params
    || List.exists (fun (v, _, _) -> v = name) ctx.index_vars
  | A.Binop (_, a, b) -> index_only ctx a && index_only ctx b
  | A.Unop (_, a) -> index_only ctx a
  | A.Select _ -> false
  | A.Let (defs, body) ->
    List.for_all (fun d -> index_only ctx d.A.def_rhs) defs
    && index_only ctx body
  | A.If (c, t, e) ->
    index_only ctx c && index_only ctx t && index_only ctx e

let static_mask ctx env cond =
  if has_dynamic env then None
  else
    let cond =
      Recurrence.subst env.statics (Recurrence.inline_lets cond)
    in
    if not (index_only ctx cond) then None
    else begin
      let base_env =
        List.map (fun (n, v) -> (n, eval_value_of v)) ctx.params
      in
      let points = Lazy.force ctx.points in
      try
        Some
          (Array.map
             (fun point ->
               let env =
                 Eval.env_of_bindings
                   (List.map (fun (v, i) -> (v, Eval.VInt i)) point
                   @ base_env)
               in
               match Eval.eval_expr env cond with
               | Eval.VBool b -> b
               | _ -> raise Exit)
             points)
      with Eval.Error _ | Exit -> None
    end

(* Record index-only let definitions so conditions over them still
   compile to static control sequences. *)
let record_static ctx env name rhs =
  let rhs = Recurrence.subst env.statics (Recurrence.inline_lets rhs) in
  if index_only ctx rhs then { env with statics = (name, rhs) :: env.statics }
  else env

(* ------------------------------------------------------------------ *)
(* Index variables: Iota sources                                        *)
(* ------------------------------------------------------------------ *)

let get_iota ctx env name =
  let rv =
    match Hashtbl.find_opt ctx.iotas name with
    | Some rv -> rv
    | None ->
      let rec spec = function
        | [] -> fail "unknown index variable %s" name
        | (v, lo, hi) :: rest ->
          if v = name then
            let rep = flat_size rest in
            (lo, hi, rep)
          else spec rest
      in
      let lo, hi, rep = spec ctx.index_vars in
      let node =
        Graph.add ctx.g ~label:("iota." ^ name)
          (Opcode.Iota { lo; hi; rep })
          [||]
      in
      let rv = Stream (node, 0) in
      Hashtbl.add ctx.iotas name rv;
      rv
  in
  adapt ctx env (rv, 0)

(* ------------------------------------------------------------------ *)
(* Array selection windows (Figures 4 and 6)                            *)
(* ------------------------------------------------------------------ *)

let flat_src_position ~src_ranges coords =
  let rec go acc = function
    | [], [] -> Some acc
    | c :: cs, (lo, hi) :: rs ->
      if c < lo || c > hi then None
      else
        let inner = List.fold_left (fun a (l, h) -> a * (h - l + 1)) 1 rs in
        go (acc + ((c - lo) * inner)) (cs, rs)
    | _ -> assert false
  in
  go 0 (coords, src_ranges)

let get_window ctx env name offsets =
  let enc = enclosing_mask env in
  let adapt_rest rv = adapt_dynamics_only ctx env rv in
  match Hashtbl.find_opt ctx.windows (name, offsets, enc) with
  | Some rv -> adapt_rest rv
  | None -> (
    (* a stream seeded (or built) for the full range can be narrowed by
       the ordinary layer adaptation *)
    match Hashtbl.find_opt ctx.windows (name, offsets, None) with
    | Some rv when enc <> None -> adapt ctx env (rv, 0)
    | _ ->
      let src =
        match List.assoc_opt name ctx.arrays with
        | Some src -> src
        | None -> fail "selection from unknown array %s" name
      in
      if List.length offsets <> List.length src.src_ranges then
        fail "array %s selected with %d subscripts but has %d dimension(s)"
          name (List.length offsets)
          (List.length src.src_ranges);
      if List.length offsets <> List.length ctx.index_vars then
        fail "array %s must be subscripted by every index variable" name;
      let src_size =
        List.fold_left (fun a (l, h) -> a * (h - l + 1)) 1 src.src_ranges
      in
      let src_mask = Array.make src_size false in
      (* walk the index points in row-major order with [point] as an
         odometer; a point's source position is the stride-weighted sum
         of its shifted coordinates *)
      let vars = Array.of_list ctx.index_vars
      and offs = Array.of_list offsets
      and ranges = Array.of_list src.src_ranges in
      let dims = Array.length vars in
      let stride = Array.make dims 1 in
      for d = dims - 2 downto 0 do
        let lo, hi = ranges.(d + 1) in
        stride.(d) <- stride.(d + 1) * (hi - lo + 1)
      done;
      let point = Array.map (fun (_, lo, _) -> lo) vars in
      let outside () =
        fail "%s[%s] reads position (%s) outside the producer's range" name
          (String.concat ", "
             (List.map2
                (fun (v, _, _) off ->
                  if off = 0 then v else Printf.sprintf "%s%+d" v off)
                ctx.index_vars offsets))
          (String.concat ", "
             (List.map2 (fun i off -> string_of_int (i + off))
                (Array.to_list point) offsets))
      in
      for k = 0 to flat_size ctx.index_vars - 1 do
        if match enc with None -> true | Some e -> e.(k) then begin
          let pos = ref 0 in
          for d = 0 to dims - 1 do
            let c = point.(d) + offs.(d) and lo, hi = ranges.(d) in
            if c < lo || c > hi then outside ();
            pos := !pos + ((c - lo) * stride.(d))
          done;
          src_mask.(!pos) <- true
        end;
        let d = ref (dims - 1) in
        while
          !d >= 0
          &&
          let _, lo, hi = vars.(!d) in
          point.(!d) <- (if point.(!d) = hi then lo else point.(!d) + 1);
          point.(!d) = lo
        do
          decr d
        done
      done;
      let rv =
        if Array.for_all Fun.id src_mask then Stream (src.src_node, 0)
        else
          mask_gate ctx
            ~label:
              (Printf.sprintf "win.%s%s" name
                 (String.concat ""
                    (List.map (Printf.sprintf "[%+d]") offsets)))
            ~mask:src_mask
            (Stream (src.src_node, 0))
      in
      Hashtbl.add ctx.windows (name, offsets, enc) rv;
      adapt_rest rv)

let seed_window ctx name offsets rv =
  Hashtbl.replace ctx.windows (name, offsets, None) rv

(* ------------------------------------------------------------------ *)
(* Constant folding                                                     *)
(* ------------------------------------------------------------------ *)

let arith_op = function
  | A.Add -> Opcode.Add
  | A.Sub -> Opcode.Sub
  | A.Mul -> Opcode.Mul
  | A.Div -> Opcode.Div
  | A.Min -> Opcode.Min
  | A.Max -> Opcode.Max
  | _ -> assert false

let cmp_op = function
  | A.Lt -> Opcode.Lt
  | A.Le -> Opcode.Le
  | A.Gt -> Opcode.Gt
  | A.Ge -> Opcode.Ge
  | A.Eq -> Opcode.Eq
  | A.Ne -> Opcode.Ne
  | _ -> assert false

let apply_binop op a b =
  if A.is_arith op then Opcode.apply_arith (arith_op op) a b
  else if A.is_compare op then Opcode.apply_cmp (cmp_op op) a b
  else
    Opcode.apply_logic
      (match op with
      | A.And -> Opcode.And
      | A.Or -> Opcode.Or
      | _ -> assert false)
      a b

let opcode_of_binop op =
  if A.is_arith op then Opcode.Arith (arith_op op)
  else if A.is_compare op then Opcode.Compare (cmp_op op)
  else
    Opcode.Logic
      (match op with
      | A.And -> Opcode.And
      | A.Or -> Opcode.Or
      | _ -> assert false)

(* ------------------------------------------------------------------ *)
(* Expression compilation                                               *)
(* ------------------------------------------------------------------ *)

let all_false ?within mask = not (Array.exists Fun.id (visible ?within mask))

let rec compile_expr ctx env expr =
  match expr with
  | A.Int_lit i -> Const (Value.Int i)
  | A.Real_lit f -> Const (Value.Real f)
  | A.Bool_lit b -> Const (Value.Bool b)
  | A.Var name -> (
    match List.assoc_opt name env.bindings with
    | Some bound -> adapt ctx env bound
    | None -> (
      match List.assoc_opt name ctx.params with
      | Some v -> Const v
      | None ->
        if List.exists (fun (v, _, _) -> v = name) ctx.index_vars then
          get_iota ctx env name
        else fail "unbound identifier %s" name))
  | A.Binop (op, a, b) -> (
    let ra = compile_expr ctx env a in
    let rb = compile_expr ctx env b in
    match (ra, rb) with
    | Const va, Const vb -> (
      try Const (apply_binop op va vb)
      with Value.Type_clash msg -> fail "constant folding: %s" msg)
    | _ ->
      let n =
        add_node ctx
          ~label:(Opcode.name (opcode_of_binop op))
          (opcode_of_binop op) [| ra; rb |]
      in
      Stream (n, 0))
  | A.Unop (A.Neg, a) -> (
    match compile_expr ctx env a with
    | Const (Value.Int i) -> Const (Value.Int (-i))
    | Const (Value.Real f) -> Const (Value.Real (-.f))
    | Const (Value.Bool _) -> fail "negation of a boolean"
    | Stream _ as rv -> Stream (add_node ctx Opcode.Neg [| rv |], 0))
  | A.Unop (A.Not, a) -> (
    match compile_expr ctx env a with
    | Const v -> Const (Value.Bool (not (Value.to_bool v)))
    | Stream _ as rv -> Stream (add_node ctx Opcode.Not [| rv |], 0))
  | A.Unop (A.Fn f, a) -> (
    let m =
      match f with
      | A.Sqrt -> Opcode.Sqrt
      | A.Abs -> Opcode.Abs
      | A.Exp -> Opcode.Exp
      | A.Ln -> Opcode.Ln
      | A.Sin -> Opcode.Sin
      | A.Cos -> Opcode.Cos
    in
    match compile_expr ctx env a with
    | Const v -> Const (Opcode.apply_math m v)
    | Stream _ as rv -> Stream (add_node ctx (Opcode.Math m) [| rv |], 0))
  | A.Select (name, indices) ->
    let offsets = offsets_of ctx name indices in
    get_window ctx env name offsets
  | A.Let (defs, body) ->
    let env =
      List.fold_left
        (fun env { A.def_name; def_rhs; _ } ->
          let env' =
            bind env def_name (compile_expr ctx env def_rhs)
          in
          record_static ctx env' def_name def_rhs)
        env defs
    in
    compile_expr ctx env body
  | A.If (c, t, e) -> (
    (* decide staticness before compiling the condition, so no dead
       condition subgraph is ever built *)
    match static_mask ctx env c with
    | Some cmask -> compile_static_if ctx env ~cmask t e
    | None -> (
      match compile_expr ctx env c with
      | Const v -> compile_expr ctx env (if Value.to_bool v then t else e)
      | Stream _ as ctl -> compile_dynamic_if ctx env ~ctl t e))

and compile_static_if ctx env ~cmask t e =
  let enc = enclosing_mask env in
  let within p = match enc with None -> true | Some w -> w.(p) in
  let tmask = Array.mapi (fun p m -> m && within p) cmask in
  let emask = Array.mapi (fun p m -> (not m) && within p) cmask in
  if all_false ?within:enc tmask then compile_expr ctx env e
  else if all_false ?within:enc emask then compile_expr ctx env t
  else begin
    let t_layer = Static { mask = tmask; gates = Hashtbl.create 8 } in
    let e_layer = Static { mask = emask; gates = Hashtbl.create 8 } in
    let t_rv = compile_expr ctx { env with layers = t_layer :: env.layers } t in
    let e_rv = compile_expr ctx { env with layers = e_layer :: env.layers } e in
    (* An arm whose elements are produced (in source order) earlier than
       the merge consumes them (in output order) piles tokens up and can
       deadlock the shared input stream; size an elastic buffer by the
       exact counting bound. *)
    let b_then, b_else = static_arm_buffering ctx ~tmask ~emask t e in
    let buffered rv b =
      match rv with
      | Const _ -> rv
      | Stream _ when b <= 0 -> rv
      | Stream _ ->
        let fifo =
          Graph.add ctx.g ~label:"arm.buf" (Opcode.Fifo (b + 1))
            [| Graph.In_arc |]
        in
        connect_rval ctx rv ~dst:fifo ~port:0;
        Stream (fifo, 0)
    in
    let t_rv = buffered t_rv b_then in
    let e_rv = buffered e_rv b_else in
    let pattern = pattern_within ?within:enc cmask in
    let mctl =
      Graph.add ctx.g ~label:"if.ctl" (Opcode.Bool_source pattern) [||]
    in
    let merge =
      add_node ctx ~label:"MERG" Opcode.Merge
        [| Stream (mctl, 0); t_rv; e_rv |]
    in
    Stream (merge, 0)
  end

(* For each arm of a static conditional: the maximum number of arm
   elements whose own source reads have arrived while their merge slot is
   still blocked by earlier outputs' source reads — the exact elastic
   capacity the arm stream needs so the shared producers never stall.
   Computed per source array and maximized. *)
and static_arm_buffering ctx ~tmask ~emask t_expr e_expr =
  let points = Lazy.force ctx.points in
  let refs expr =
    (* direct array reads of the arm, with their source spaces *)
    List.filter_map
      (fun (name, offsets) ->
        match List.assoc_opt name ctx.arrays with
        | Some src when List.length offsets = List.length ctx.index_vars ->
          Some (name, offsets, src.src_ranges)
        | _ -> None)
      (Val_lang.Classify.array_references expr)
  in
  let t_refs = refs t_expr and e_refs = refs e_expr in
  let arrays =
    List.sort_uniq compare
      (List.map (fun (n, _, _) -> n) (t_refs @ e_refs))
  in
  let bound_for arm_mask arm_refs =
    List.fold_left
      (fun acc array ->
        (* per output position (in enc order): the latest slot of [array]
           its arm reads, or none *)
        let slot_of refs_for_arm p =
          List.fold_left
            (fun acc (n, offsets, ranges) ->
              if n <> array then acc
              else
                let coords =
                  List.map2 (fun (_, i) off -> i + off) points.(p) offsets
                in
                match flat_src_position ~src_ranges:ranges coords with
                | Some s -> max acc s
                | None -> acc)
            min_int refs_for_arm
        in
        (* walk outputs in order, tracking need = running max of every
           arm's reads, and the produced/consumed imbalance of THIS arm *)
        let own = ref [] (* (s_k, need_k) for this arm's elements *) in
        let need = ref min_int in
        Array.iteri
          (fun p _ ->
            let in_t = tmask.(p) and in_e = emask.(p) in
            if in_t || in_e then begin
              let s =
                slot_of (if in_t then t_refs else e_refs) p
              in
              if s > min_int then need := max !need s;
              let mine =
                (in_t && arm_mask == tmask) || (in_e && arm_mask == emask)
              in
              if mine then begin
                let s_own = slot_of arm_refs p in
                if s_own > min_int then own := (s_own, !need) :: !own
              end
            end)
          points;
        let own = List.rev !own in
        (* imbalance at each production instant *)
        let b =
          List.fold_left
            (fun best (s_k, _) ->
              let produced =
                List.length (List.filter (fun (s, _) -> s <= s_k) own)
              in
              let consumed =
                List.length (List.filter (fun (_, nd) -> nd <= s_k) own)
              in
              max best (produced - consumed))
            0 own
        in
        max acc b)
      0 arrays
  in
  (bound_for tmask t_refs, bound_for emask e_refs)

and compile_dynamic_if ctx env ~ctl t e =
  let switches = Hashtbl.create 8 in
  let arm polarity = Dynamic { ctl; polarity; switches } in
  let t_rv = compile_expr ctx { env with layers = arm true :: env.layers } t in
  let e_rv = compile_expr ctx { env with layers = arm false :: env.layers } e in
  let merge = add_node ctx ~label:"MERG" Opcode.Merge [| ctl; t_rv; e_rv |] in
  Stream (merge, 0)

and offsets_of ctx name indices =
  let vars = List.map (fun (v, _, _) -> v) ctx.index_vars in
  if List.length indices <> List.length vars then
    fail "array %s must use all %d index variable(s)" name (List.length vars);
  List.map2
    (fun ix var ->
      match ix with
      | A.Ix_var (v, off) when v = var -> off
      | A.Ix_var (v, _) ->
        fail "subscript of %s uses %s where %s is required" name v var
      | A.Ix_const _ ->
        fail "constant subscript on %s is outside the primitive class" name)
    indices vars

let materialize ctx rv =
  match rv with
  | Stream (n, 0) -> n
  | Stream _ -> add_node ctx ~label:"ID" Opcode.Id [| rv |]
  | Const v -> (
    (* A constant block body still produces one packet per index point:
       pace the constant off any input stream of matching dimensionality
       (an always-true comparison of the stream with itself gates the
       constant operand through). *)
    let dims = List.length ctx.index_vars in
    match
      List.find_opt
        (fun (_, src) -> List.length src.src_ranges = dims)
        ctx.arrays
    with
    | None ->
      fail
        "expression is a compile-time constant stream and no array input \
         of matching dimensionality can pace it"
    | Some (name, _) ->
      let offsets = List.map (fun _ -> 0) ctx.index_vars in
      let pace = get_window ctx top_env name offsets in
      let always =
        add_node ctx ~label:"pace.true" (Opcode.Compare Opcode.Eq)
          [| pace; pace |]
      in
      add_node ctx ~label:"pace.const" Opcode.Tgate
        [| Stream (always, 0); Const v |])
