(* The flat-arena lowering: arena numbering invariants, mid-run
   snapshot/restore bit-identity on the machine engine, and the shared
   nan/error conventions. *)

open Dfg
module ME = Machine.Machine_engine
module K = Kernels
module PC = Compiler.Program_compile

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let kernel_subject (k : K.kernel) ~size ~seed =
  let st = Random.State.make [| seed; Hashtbl.hash k.K.name |] in
  let _, compiled =
    Compiler.Driver.compile_source ~scalar_inputs:k.K.scalar_inputs
      (k.K.source size)
  in
  let inputs =
    List.map
      (fun (name, _) -> (name, List.assoc name (k.K.inputs size st)))
      compiled.PC.cp_inputs
  in
  (compiled.PC.cp_graph, inputs)

(* ---------------- arena structure ---------------- *)

let test_arena_invariants () =
  List.iter
    (fun (k : K.kernel) ->
      let g, _ = kernel_subject k ~size:8 ~seed:0 in
      let a = Arena.build g in
      let n = a.Arena.n in
      checki (k.K.name ^ ": cell count") (Graph.node_count g) n;
      checki (k.K.name ^ ": port_base closes")
        a.Arena.n_ports a.Arena.port_base.(n);
      let n_slots = a.Arena.slot_base.(n) in
      checki (k.K.name ^ ": slot_base closes")
        (Array.length a.Arena.dest_base - 1) n_slots;
      checki (k.K.name ^ ": dest_base closes")
        (Array.length a.Arena.dest_port)
        a.Arena.dest_base.(n_slots);
      (* global port numbering is the inverse of (cell, local port) *)
      for p = 0 to a.Arena.n_ports - 1 do
        checki
          (Printf.sprintf "%s: port %d round-trips" k.K.name p)
          p
          (a.Arena.port_base.(a.Arena.port_cell.(p)) + a.Arena.port_sub.(p))
      done;
      for id = 0 to n - 1 do
        let node = Graph.node g id in
        checki
          (Printf.sprintf "%s: cell %d arity" k.K.name id)
          (Array.length node.Graph.inputs)
          (a.Arena.port_base.(id + 1) - a.Arena.port_base.(id));
        (* port kinds mirror the graph's input connectors *)
        Array.iteri
          (fun i inp ->
            let kind = a.Arena.port_kind.(a.Arena.port_base.(id) + i) in
            let want =
              match inp with
              | Graph.In_arc -> Arena.kind_arc
              | Graph.In_arc_init _ -> Arena.kind_init
              | Graph.In_const _ -> Arena.kind_const
            in
            checki
              (Printf.sprintf "%s: cell %d port %d kind" k.K.name id i)
              want kind)
          node.Graph.inputs;
        (* destination segments preserve the graph's dests order *)
        Array.iteri
          (fun slot eps ->
            let s = a.Arena.slot_base.(id) + slot in
            let db = a.Arena.dest_base.(s) in
            checki
              (Printf.sprintf "%s: cell %d slot %d fanout" k.K.name id slot)
              (List.length eps) (a.Arena.dest_base.(s + 1) - db);
            List.iteri
              (fun i { Graph.ep_node; ep_port } ->
                checki
                  (Printf.sprintf "%s: cell %d slot %d dest %d" k.K.name id
                     slot i)
                  (a.Arena.port_base.(ep_node) + ep_port)
                  a.Arena.dest_port.(db + i))
              eps)
          node.Graph.dests
      done)
    K.all

(* ---------------- snapshot/restore ---------------- *)

let machine_result_identical ~label (a : ME.result) (b : ME.result) =
  checkb (label ^ ": outputs") true (a.ME.outputs = b.ME.outputs);
  checki (label ^ ": end_time") a.ME.end_time b.ME.end_time;
  checkb (label ^ ": stats") true (a.ME.stats = b.ME.stats);
  checkb (label ^ ": quiescent") a.ME.quiescent b.ME.quiescent

let test_snapshot_restore () =
  let k = K.find "hydro" in
  let g, inputs = kernel_subject k ~size:10 ~seed:3 in
  let arch = Machine.Arch.default in
  let cfg = ME.default_config in
  let straight = ME.run_cfg cfg ~arch g ~inputs in
  let m = ME.create_cfg cfg ~arch g ~inputs in
  ME.advance m ~until:40;
  checkb "paused mid-run" false (ME.finished m);
  (* a mid-run snapshot is plain data: a fresh machine restored from it
     finishes exactly as the uninterrupted run *)
  let m2 = ME.create_cfg cfg ~arch g ~inputs in
  ME.restore m2 (ME.snapshot m);
  ME.advance m2 ~until:max_int;
  machine_result_identical ~label:"restored machine finishes" straight
    (ME.result m2);
  (* and taking the snapshot left the paused machine untouched *)
  ME.advance m ~until:max_int;
  machine_result_identical ~label:"paused machine finishes" straight
    (ME.result m)

(* ---------------- nan and error conventions ---------------- *)

let run_hydro_sim () =
  let k = K.find "hydro" in
  let _, compiled =
    Compiler.Driver.compile_source ~scalar_inputs:k.K.scalar_inputs
      (k.K.source 6)
  in
  Exec.Job.run
    (Exec.Job.make ~name:"hydro" ~engine:Exec.Job.Sim
       ~config:Run_config.default
       (Exec.Job.Graph_program compiled.Compiler.Program_compile.cp_graph)
       ~inputs:
         (Compiler.Driver.feeds ~waves:2 compiled
            (k.K.inputs 6 (Random.State.make [| 0; Hashtbl.hash k.K.name |]))))

let test_nan_conventions () =
  checkb "ratio n/0 is nan" true (Float.is_nan (Df_util.Conventions.ratio 3.0 0.0));
  checkb "interval of no packets is nan" true
    (Float.is_nan (Sim.Metrics.initiation_interval []));
  checkb "interval of one packet is nan" true
    (Float.is_nan (Sim.Metrics.initiation_interval [ 5 ]));
  Alcotest.(check (float 1e-9))
    "interval of a steady stream" 2.0
    (Sim.Metrics.initiation_interval [ 0; 2; 4; 6 ]);
  let zero =
    {
      Exec.Outcome.firings = 0; cells = 0; fu_ops = 0; am_ops = 0;
      result_packets = 0; ack_packets = 0; retransmits = 0;
      checkpoints = 0; recoveries = 0;
    }
  in
  checkb "am_fraction of an empty run is nan" true
    (Float.is_nan (Exec.Outcome.am_fraction zero));
  let o = run_hydro_sim () in
  checkb "sim am_fraction is 0 (no array memories)" true
    (Exec.Outcome.am_fraction o.Exec.Outcome.counters = 0.0)

let test_lookup_errors () =
  let k = K.find "hydro" in
  let o = run_hydro_sim () in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  (match Exec.Outcome.stream o "nope" with
  | _ -> Alcotest.fail "unknown stream must raise"
  | exception Invalid_argument msg ->
    checkb "names the missing stream" true (contains msg "no output stream nope");
    checkb "lists the produced streams" true (contains msg "run produced"));
  let g, inputs = kernel_subject k ~size:6 ~seed:0 in
  (match Sim.Engine.run_cfg Run_config.default g ~inputs:[] with
  | _ -> Alcotest.fail "missing input feed must raise"
  | exception Invalid_argument msg ->
    checkb "names the missing input" true (contains msg "no packets for input"));
  (* a feed the graph has no input for is rejected by both engines *)
  let inputs = inputs @ [ ("zzz", [ Value.Int 1 ]) ] in
  List.iter
    (fun (engine, run) ->
      match run () with
      | () -> Alcotest.failf "%s: unknown input stream must raise" engine
      | exception Invalid_argument msg ->
        checkb (engine ^ " names the unknown stream") true
          (contains msg "unknown input stream zzz"))
    [ ("graph engine",
       fun () -> ignore (Sim.Engine.run_cfg Run_config.default g ~inputs));
      ("machine engine",
       fun () ->
         ignore
           (ME.run_cfg ME.default_config ~arch:Machine.Arch.default g ~inputs))
    ]

(* ---------------- allocation ---------------- *)

(* A one-wave kernel run on a prebuilt arena — a dfserve cached hit's
   run — allocates only small blocks, in the minor heap.  Counted as
   major minus promoted words of [Gc.counters]: the words allocated
   straight into the major heap (every block over 256 words), which
   a short run pays for in major collections.  Each kernel runs once
   before the count, so one-time initialisation stays out of it. *)
let test_no_direct_major_allocation () =
  List.iter
    (fun (k : K.kernel) ->
      let _, cp =
        Compiler.Driver.compile_source ~scalar_inputs:k.K.scalar_inputs
          (k.K.source 16)
      in
      let a = Arena.build cp.PC.cp_graph in
      let inputs = Compiler.Driver.feeds ~waves:1 cp (K.seeded_inputs k 16) in
      let run () = Sim.Engine.run_arena Run_config.default a ~inputs in
      ignore (run ());
      let _, promoted0, major0 = Gc.counters () in
      let r = run () in
      let _, promoted1, major1 = Gc.counters () in
      ignore (Sys.opaque_identity r);
      let direct = major1 -. major0 -. (promoted1 -. promoted0) in
      if direct > 0. then
        Alcotest.failf "%s: %.0f words allocated directly in the major heap"
          k.K.name direct)
    K.all

let suite =
  [
    Alcotest.test_case "arena numbering invariants" `Quick
      test_arena_invariants;
    Alcotest.test_case "snapshot resume = straight run" `Quick
      test_snapshot_restore;
    Alcotest.test_case "nan conventions are shared" `Quick
      test_nan_conventions;
    Alcotest.test_case "lookup error paths name the candidates" `Quick
      test_lookup_errors;
    Alcotest.test_case "one-wave runs allocate nothing in the major heap"
      `Quick test_no_direct_major_allocation;
  ]
