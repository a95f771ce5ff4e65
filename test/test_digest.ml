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

(* The kernels at size 16 under every compile option that takes another
   path through the compile passes than the default: no CSE, each
   balancing strategy (none, naive, reduced), Todd's self-timed for-iter
   rings and expanded macros.  One digest per option. *)
let option_variants =
  let module PC = Compiler.Program_compile in
  let d = PC.default_options in
  [ ("cse = false", { d with PC.cse = false },
     "33ccd15356a78402b318f41413a2de66");
    ("balance = `None", { d with PC.balance = `None },
     "12436724548c486d10d95286cf1ab7cc");
    ("balance = `Naive", { d with PC.balance = `Naive },
     "5d00da68473fed735aae0fb29c590f0b");
    ("balance = `Reduced", { d with PC.balance = `Reduced },
     "e2b4463f2c9b6e2d859efd3da8127fa9");
    ("scheme = Todd", { d with PC.scheme = Compiler.Foriter_compile.Todd },
     "dd34ae59d79da99cc9be49265782d953");
    ("expand_macros = true", { d with PC.expand_macros = true },
     "32dbe2db44f3d9cbe019aa53e9c116dc") ]

let test_options_pinned () =
  List.iter
    (fun (name, options, expected) ->
      let b = Buffer.create (1 lsl 20) in
      List.iter
        (fun (k : K.kernel) ->
          let _, cp =
            Compiler.Driver.compile_source ~options
              ~scalar_inputs:k.K.scalar_inputs (k.K.source 16)
          in
          Buffer.add_string b
            (Text.to_string cp.Compiler.Program_compile.cp_graph))
        K.all;
      let got = Digest.to_hex (Digest.string (Buffer.contents b)) in
      if got <> expected then
        Alcotest.failf "kernels compiled with %s changed; this build produces %S"
          name got)
    option_variants

let suite =
  [ Alcotest.test_case "kernels and balanced DAGs match recorded digest"
      `Quick test_pinned;
    Alcotest.test_case "large balanced DAGs match recorded digest" `Quick
      test_large_pinned;
    Alcotest.test_case
      "kernels under every compile option match recorded digests" `Quick
      test_options_pinned ]
