(* Compiled graphs pinned across commits: one MD5 over the Dfg.Text form
   of every kernel compiled at three sizes and of random DAGs balanced
   both ways the compiler can.  Optimal levels come from
   [Mincost_flow.potentials], which by complementary slackness do not
   depend on which optimal flow the solver finds, so a rewrite of the
   flow solver must leave this digest as it is.  A change that alters
   compiled graphs on purpose re-records it: the failure message prints
   the digest the build under test produced. *)

open Dfg
module K = Kernels
module B = Balance.Balancer

let kernel_graphs () =
  List.concat_map
    (fun (k : K.kernel) ->
      List.map
        (fun size ->
          let _, cp =
            Compiler.Driver.compile_source ~scalar_inputs:k.K.scalar_inputs
              (k.K.source size)
          in
          cp.Compiler.Program_compile.cp_graph)
        [ 8; 16; 32 ])
    K.all

(* 30 DAGs of 6-20 layers and width 3-10. *)
let dags () =
  List.init 30 (fun i ->
      let seed = 1000 + i in
      let layers = 6 + (i mod 15) and width = 3 + (3 * i mod 8) in
      (seed, Test_balance.random_dag ~seed ~layers ~width))

(* A synthetic gate shift of 0, 1 or 2 per node, so phase weights of 1,
   3 and 5 all occur. *)
let shift ~seed id = ((7 * id) + seed) mod 3

let digest () =
  let b = Buffer.create (1 lsl 20) in
  let add g = Buffer.add_string b (Text.to_string g) in
  List.iter add (kernel_graphs ());
  List.iter
    (fun (seed, g) ->
      add (B.balance ~strategy:`Optimal g);
      add (B.phase_balance ~shift:(shift ~seed) g))
    (dags ());
  Digest.to_hex (Digest.string (Buffer.contents b))

let expected = "ebb599405eeb6398124047c698d5ef71"

let test_pinned () =
  let got = digest () in
  if got <> expected then
    Alcotest.failf "compiled graphs changed; this build produces %S" got

(* 20 larger DAGs, 30-60 layers of width 8-20, with gate shifts of 0-2
   drawn from a seeded generator: enough pivots and tied slacks per
   solve that a change of solver which moved a single FIFO would show. *)
let large_dags () =
  List.init 20 (fun i ->
      let seed = 5000 + i in
      let rng = Random.State.make [| seed |] in
      let layers = 30 + Random.State.int rng 31
      and width = 8 + Random.State.int rng 13 in
      let g = Test_balance.random_dag ~seed ~layers ~width in
      let shifts =
        Array.init (Graph.node_count g) (fun _ -> Random.State.int rng 3)
      in
      (g, fun id -> shifts.(id)))

let large_digest () =
  let b = Buffer.create (1 lsl 22) in
  let add g = Buffer.add_string b (Text.to_string g) in
  List.iter
    (fun (g, shift) ->
      add (B.balance ~strategy:`Optimal g);
      add (B.phase_balance ~shift g))
    (large_dags ());
  Digest.to_hex (Digest.string (Buffer.contents b))

let large_expected = "5d51fc5a01b005d6c97abc1a6b4be13b"

let test_large_pinned () =
  let got = large_digest () in
  if got <> large_expected then
    Alcotest.failf "balanced large DAGs changed; this build produces %S" got

let suite =
  [ Alcotest.test_case "kernels and balanced DAGs match recorded digest"
      `Quick test_pinned;
    Alcotest.test_case "large balanced DAGs match recorded digest" `Quick
      test_large_pinned ]
