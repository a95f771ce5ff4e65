(* Network simplex on the tension LP; see the .mli and docs/THEORY.md §3.

   Arc a runs src.(a) -> dst.(a) with slack
   levels.(dst) - levels.(src) - weight.(a) >= 0, tight at 0.  The tree
   is a spanning forest of tight arcs, one tree per connected component,
   numbered in postorder from each root: [lim.(x)] is x's number and
   [low.(x)] the least number in x's subtree, so y lies in x's subtree
   iff low.(x) <= lim.(y) <= lim.(x), and [at] lists the nodes by number,
   which makes every subtree one slice of it.

   The cut value of tree arc e counts the arcs from e's tail side to its
   head side (the two halves of the tree without e) minus those the
   other way.  It is the flow e carries when no non-tree arc carries any:
   the only such flow meeting every node's balance, indegree - outdegree.
   All cut values >= 0 is therefore a feasible flow, complementary to
   the levels (it uses only tight arcs), and both are optimal. *)

type t = {
  src : int array;
  dst : int array;
  weight : int array;
  levels : int array;
  first : int array;  (* arcs at x, either way: inc.(first.(x) .. first.(x+1)-1) *)
  inc : int array;
  tree : Bytes.t;     (* '\001' on tree arcs *)
  cut : int array;    (* cut value of each tree arc *)
  par : int array;    (* tree arc to the parent, -1 at a root *)
  low : int array;
  lim : int array;
  at : int array;
  stack : int array;  (* work stack for tree walks *)
  pos : int array;
}

let other t a x = t.src.(a) + t.dst.(a) - x

let slack t a = t.levels.(t.dst.(a)) - t.levels.(t.src.(a)) - t.weight.(a)

let in_tree t a = Bytes.get t.tree a <> '\000'

let below t x y = t.low.(x) <= t.lim.(y) && t.lim.(y) <= t.lim.(x)

let create ~src ~dst ~weight levels =
  let n = Array.length levels and m = Array.length src in
  if Array.length dst <> m || Array.length weight <> m then
    invalid_arg "Network_simplex: arc arrays differ in length";
  let first = Array.make (n + 1) 0 in
  for a = 0 to m - 1 do
    let u = src.(a) and v = dst.(a) in
    if u < 0 || u >= n || v < 0 || v >= n || u = v then
      invalid_arg "Network_simplex: bad arc";
    if levels.(v) - levels.(u) < weight.(a) then
      invalid_arg "Network_simplex: infeasible levels";
    first.(u + 1) <- first.(u + 1) + 1;
    first.(v + 1) <- first.(v + 1) + 1
  done;
  for x = 1 to n do
    first.(x) <- first.(x) + first.(x - 1)
  done;
  let fill = Array.sub first 0 n and inc = Array.make (2 * m) 0 in
  let put x a =
    inc.(fill.(x)) <- a;
    fill.(x) <- fill.(x) + 1
  in
  for a = 0 to m - 1 do
    put src.(a) a;
    put dst.(a) a
  done;
  { src; dst; weight; levels; first; inc;
    tree = Bytes.make m '\000'; cut = Array.make m 0;
    par = Array.make n (-1); low = Array.make n 0; lim = Array.make n 0;
    at = Array.make n 0; stack = Array.make n 0; pos = Array.make n 0 }

(* Number the tree below [root] in postorder from [low0] and reset the
   parent arcs below it ([root]'s own stays); returns the next number.
   A subtree whose root keeps its parent arc and its first number keeps
   all its numbers, unless a pivot changed it, which [update_path] marks
   by setting [low] to -1 along the changed path (as graphviz's ns.c
   does); such a subtree is skipped. *)
let renumber t root low0 =
  let next = ref low0 and sp = ref 0 in
  t.stack.(0) <- root;
  t.pos.(0) <- t.first.(root);
  t.low.(root) <- low0;
  while !sp >= 0 do
    let x = t.stack.(!sp) and i = t.pos.(!sp) in
    if i < t.first.(x + 1) then begin
      t.pos.(!sp) <- i + 1;
      let a = t.inc.(i) in
      if in_tree t a && a <> t.par.(x) then begin
        let y = other t a x in
        if t.par.(y) = a && t.low.(y) = !next then next := t.lim.(y) + 1
        else begin
          t.par.(y) <- a;
          t.low.(y) <- !next;
          incr sp;
          t.stack.(!sp) <- y;
          t.pos.(!sp) <- t.first.(y)
        end
      end
    end
    else begin
      t.lim.(x) <- !next;
      t.at.(!next) <- x;
      incr next;
      decr sp
    end
  done;
  !next

(* One tight tree per component, grown from its least node.  While a
   tree grows its members sit at [offset] from their stored levels, so a
   merge moves the whole tree in O(1): it shifts the tree by the least
   slack on the frontier (the arcs from the tree to the rest of its
   component), toward the frontier arc that has it.  That keeps every
   arc feasible and makes that arc tight; then every frontier arc now
   tight is taken in, and the tree grows along tight arcs from there.
   Each merge adds a node, so a component of k nodes takes < k merges. *)
let build_tree t =
  let n = Array.length t.levels and m = Array.length t.src in
  let member = Bytes.make n '\000' in
  let is_member x = Bytes.get member x <> '\000' in
  let offset = ref 0 and frontier = Array.make m 0 and nf = ref 0 in
  let comp = Array.make n 0 and nc = ref 0 in
  let level x = if is_member x then t.levels.(x) + !offset else t.levels.(x) in
  let arc_slack a = level t.dst.(a) - level t.src.(a) - t.weight.(a) in
  let enter y =
    Bytes.set member y '\001';
    t.levels.(y) <- t.levels.(y) - !offset;
    comp.(!nc) <- y;
    incr nc
  in
  let join y =
    enter y;
    let sp = ref 1 in
    t.stack.(0) <- y;
    while !sp > 0 do
      decr sp;
      let x = t.stack.(!sp) in
      for i = t.first.(x) to t.first.(x + 1) - 1 do
        let a = t.inc.(i) in
        let z = other t a x in
        if not (is_member z) then
          if arc_slack a = 0 then begin
            Bytes.set t.tree a '\001';
            enter z;
            t.stack.(!sp) <- z;
            incr sp
          end
          else begin
            frontier.(!nf) <- a;
            incr nf
          end
      done
    done
  in
  let next = ref 0 in
  for r = 0 to n - 1 do
    if not (is_member r) then begin
      let c0 = !nc in
      offset := 0;
      nf := 0;
      join r;
      let grown = ref false in
      while not !grown do
        (* drop arcs now inside the tree; find the least slack *)
        let best = ref max_int and up = ref false and k = ref 0 in
        for i = 0 to !nf - 1 do
          let a = frontier.(i) in
          let tail_in = is_member t.src.(a) in
          if tail_in <> is_member t.dst.(a) then begin
            frontier.(!k) <- a;
            incr k;
            let s = arc_slack a in
            if s < !best then begin
              best := s;
              up := tail_in
            end
          end
        done;
        nf := !k;
        if !nf = 0 then grown := true
        else begin
          offset := if !up then !offset + !best else !offset - !best;
          for i = 0 to !k - 1 do
            let a = frontier.(i) in
            let u = t.src.(a) and v = t.dst.(a) in
            if is_member u <> is_member v && arc_slack a = 0 then begin
              Bytes.set t.tree a '\001';
              join (if is_member u then v else u)
            end
          done
        end
      done;
      for i = c0 to !nc - 1 do
        let x = comp.(i) in
        t.levels.(x) <- t.levels.(x) + !offset
      done;
      next := renumber t r !next
    end
  done

(* Cut values bottom-up: the arcs out of x's subtree minus those into it
   is out - in summed over the subtree, and the parent arc's cut value
   is that, negated when the arc points down into the subtree. *)
let init_cut_values t =
  let n = Array.length t.levels in
  let net = Array.make n 0 in
  Array.iter (fun u -> net.(u) <- net.(u) + 1) t.src;
  Array.iter (fun v -> net.(v) <- net.(v) - 1) t.dst;
  for k = 0 to n - 1 do
    let x = t.at.(k) in
    let a = t.par.(x) in
    if a >= 0 then begin
      t.cut.(a) <- (if t.src.(a) = x then net.(x) else -net.(x));
      let p = other t a x in
      net.(p) <- net.(p) + net.(x)
    end
  done

(* Walk from [x] up to the lowest common ancestor of [x] and [y], adding
   [d] to the cut value of each tree arc on the way that points up iff
   [add_up] and subtracting it from the others, and marking the nodes
   passed for renumbering; returns the ancestor. *)
let rec update_path t x y d add_up =
  if below t x y then x
  else begin
    let a = t.par.(x) in
    if (t.src.(a) = x) = add_up then t.cut.(a) <- t.cut.(a) + d
    else t.cut.(a) <- t.cut.(a) - d;
    t.low.(x) <- -1;
    update_path t (other t a x) y d add_up
  end

(* Pivot tree arc [e] (negative cut value) out of the tree.  The side of
   [e] below it (its subtree) moves away from the other side, up if it
   holds e's head and down if it holds e's tail, which lowers the
   objective by delta * -cut(e), until the first arc from e's head side
   to its tail side is tight: the least-slack such arc [f], least index
   first, enters.  Every such arc has an endpoint in the subtree, so only
   the subtree is searched and moved.  [f] closes a cycle with the tree
   path between its endpoints, which runs through [e]; sending -cut(e)
   around it empties [e] and moves the cut value of every other arc on
   that path, so only the path is updated and only the subtree of its
   top node, the endpoints' lowest common ancestor, is renumbered. *)
let pivot t e =
  let c = if t.par.(t.src.(e)) = e then t.src.(e) else t.dst.(e) in
  let head_below = c = t.dst.(e) in
  let lo = t.low.(c) and hi = t.lim.(c) in
  let f = ref (-1) and delta = ref max_int in
  for k = lo to hi do
    let x = t.at.(k) in
    for i = t.first.(x) to t.first.(x + 1) - 1 do
      let a = t.inc.(i) in
      if (not (in_tree t a)) && (t.src.(a) = x) = head_below then begin
        let ly = t.lim.(other t a x) in
        if ly < lo || ly > hi then begin
          let s = slack t a in
          if s < !delta || (s = !delta && a < !f) then begin
            delta := s;
            f := a
          end
        end
      end
    done
  done;
  let f = !f and delta = !delta in
  if delta > 0 then begin
    let d = if head_below then delta else -delta in
    for k = lo to hi do
      let x = t.at.(k) in
      t.levels.(x) <- t.levels.(x) + d
    done
  end;
  let ce = t.cut.(e) in
  let lca = update_path t t.src.(f) t.dst.(f) ce true in
  ignore (update_path t t.dst.(f) t.src.(f) ce false);
  t.cut.(f) <- -ce;
  t.cut.(e) <- 0;
  Bytes.set t.tree e '\000';
  Bytes.set t.tree f '\001';
  ignore (renumber t lca t.low.(lca));
  delta

(* Pivot rule and termination.  In the slacks s_a >= 0 the LP is:
   minimize Σ s_a over the s for which s + weight is a tension (a
   difference of levels), a standard-form LP whose bases are the
   spanning forests, with the non-tree arcs' slacks basic and the tree
   arcs' non-basic at 0.  The reduced cost of a tree arc's slack is its
   cut value, and delta is the ratio test's minimum, so each pivot is a
   primal simplex pivot: s_e enters the basis and s_f leaves.

   The leaving tree arc [e] is the one of most negative cut value (least
   index among ties), Dantzig's rule, which takes far fewer pivots than
   the least index on these LPs.  A pivot with delta > 0 lowers the
   objective by delta * -cut(e) >= 1; the objective is an integer and
   bounded below by 0, so only finitely many pivots are non-degenerate.
   A degenerate pivot (delta = 0) changes the basis but not the levels,
   and a run of them could cycle under Dantzig's rule.  So after
   [degenerate_run] consecutive degenerate pivots the rule becomes the
   least-index tree arc of negative cut value, with [f] the least-index
   arc among the least-slack candidates, as always: Bland's
   smallest-subscript rule, under which the simplex method never
   returns to a basis (R. G. Bland, "New finite pivoting rules for the
   simplex method", Math. Oper. Res. 2, 1977).  There are finitely many
   spanning forests, so such a run ends, in a non-degenerate pivot
   (which restores Dantzig's rule) or at the optimum.  Hence the loop
   ends, and only at an optimum: a candidate [f] always exists, since
   cut(e) < 0 means more arcs cross e's cut against e than with it, and
   e itself is one of the latter.  The limit is a constant: it is short
   enough that the Bland branch is taken on the balancing tests' DAGs,
   and long enough that degenerate runs rarely reach it. *)
let degenerate_run = 32

let optimal_flow ~src ~dst ~weight levels =
  let t = create ~src ~dst ~weight levels in
  let m = Array.length src in
  build_tree t;
  init_cut_values t;
  let rec leaving ~bland a best =
    if a = m then best
    else if
      in_tree t a && t.cut.(a) < 0 && (best < 0 || t.cut.(a) < t.cut.(best))
    then if bland then a else leaving ~bland (a + 1) a
    else leaving ~bland (a + 1) best
  in
  let rec loop run =
    match leaving ~bland:(run >= degenerate_run) 0 (-1) with
    | -1 -> ()
    | e -> loop (if pivot t e = 0 then run + 1 else 0)
  in
  loop 0;
  Array.init m (fun a -> if in_tree t a then t.cut.(a) else 0)

let arc_fault a u v fmt =
  Printf.ksprintf
    (fun fault -> Error (Printf.sprintf "arc %d (%d -> %d) %s" a u v fault))
    fmt

(* [net.(x)] sums Σ in (f - 1) - Σ out (f - 1), which is zero exactly
   when x's flow in - out is its indegree - outdegree. *)
let certify ~src ~dst ~weight ~levels flow =
  let m = Array.length src in
  if Array.length dst <> m || Array.length weight <> m
     || Array.length flow <> m
  then invalid_arg "Network_simplex.certify: arc arrays differ in length";
  let net = Array.make (Array.length levels) 0 in
  let rec arcs a =
    if a = m then nodes 0
    else
      let u = src.(a) and v = dst.(a) and f = flow.(a) in
      let s = levels.(v) - levels.(u) - weight.(a) in
      if f < 0 then arc_fault a u v "carries flow %d" f
      else if s < 0 then arc_fault a u v "is infeasible (slack %d)" s
      else if s > 0 && f > 0 then
        arc_fault a u v "carries flow %d at slack %d" f s
      else begin
        net.(u) <- net.(u) - (f - 1);
        net.(v) <- net.(v) + (f - 1);
        arcs (a + 1)
      end
  and nodes x =
    if x = Array.length net then Ok ()
    else if net.(x) <> 0 then
      Error
        (Printf.sprintf
           "node %d: flow in - out differs from indegree - outdegree by %d"
           x net.(x))
    else nodes (x + 1)
  in
  arcs 0
