let () =
  Alcotest.run "dataflow_pipelining"
    [
      ("util", Test_util.suite);
      ("val.parser", Test_val_parser.suite);
      ("val.eval", Test_val_eval.suite);
      ("val.classify", Test_classify.suite);
      ("dfg.graph", Test_dfg.suite);
      ("sim.engine", Test_sim.suite);
      ("balance", Test_balance.suite);
      ("balance.digest", Test_digest.suite);
      ("compiler", Test_compiler.suite);
      ("machine", Test_machine.suite);
      ("dfg.text", Test_serialize.suite);
      ("dfg.optimize", Test_optimize.suite);
      ("val.math", Test_math_fns.suite);
      ("kernels", Test_kernels.suite);
      ("compiler.distance", Test_companion_distance.suite);
      ("compiler.driver", Test_driver.suite);
      ("properties", Test_properties.suite);
      ("obs", Test_obs.suite);
      ("fault", Test_fault.suite);
      ("recover", Test_recover.suite);
      ("integrity", Test_integrity.suite);
      ("exec", Test_exec.suite);
      ("exec.arena", Test_arena.suite);
      ("engine.behaviour", Test_behaviour.suite);
      ("serve", Test_serve.suite);
      ("serve.journal", Test_journal.suite);
      ("serve.replica", Test_replica.suite);
    ]
