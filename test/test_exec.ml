(* lib/exec: the determinism contract of the domain-parallel runner.

   The whole point of Pool's submission-order collection is that a
   parallel run is indistinguishable from a sequential one — same merged
   results, same JSON bytes — so these tests run the same work at
   several worker counts and require bit-identical output.  Failure
   isolation and the Run_config wrapper equivalence ride along. *)

module K = Kernels
module D = Compiler.Driver
module ME = Machine.Machine_engine

let check = Alcotest.check
let checkb = Alcotest.(check bool)

(* a comparable projection of an outcome: everything deterministic the
   runner promises, nothing engine-internal *)
let fingerprint (r : (Exec.Outcome.t, Exec.Pool.error) result) =
  match r with
  | Ok o ->
    Ok
      ( o.Exec.Outcome.name,
        o.Exec.Outcome.outputs,
        o.Exec.Outcome.end_time,
        o.Exec.Outcome.quiescent,
        List.map Fault.Violation.to_string o.Exec.Outcome.violations )
  | Error e -> Error (e.Exec.Pool.index, e.Exec.Pool.message)

let kernel_jobs engine =
  List.map
    (fun (k : K.kernel) ->
      let _, compiled =
        D.compile_source ~scalar_inputs:k.K.scalar_inputs (k.K.source 12)
      in
      Exec.Job.make ~name:k.K.name ~engine
        (Exec.Job.Graph_program compiled.Compiler.Program_compile.cp_graph)
        ~inputs:(D.feeds ~waves:2 compiled (K.seeded_inputs k 12)))
    K.all

(* 1. merged results of the full kernel suite are bit-identical at any
   worker count, on both engines *)
let test_parallel_identity () =
  List.iter
    (fun (label, engine) ->
      let jobs = kernel_jobs engine in
      let run_all ~jobs = Exec.Pool.map_result ~jobs Exec.Job.run in
      let seq = List.map fingerprint (run_all ~jobs:1 jobs) in
      List.iter
        (fun workers ->
          let par =
            List.map fingerprint (run_all ~jobs:workers jobs)
          in
          checkb
            (Printf.sprintf "%s: %d workers == sequential" label workers)
            true (par = seq))
        [ 2; 4; 8 ];
      (* and the sequential run actually ran: every kernel quiesced *)
      List.iter
        (function
          | Ok (name, outputs, _, quiescent, violations) ->
            checkb (name ^ " quiescent") true quiescent;
            checkb (name ^ " no violations") true (violations = []);
            checkb (name ^ " produced output") true (outputs <> [])
          | Error (i, msg) ->
            Alcotest.failf "job %d failed: %s" i msg)
        seq)
    [ ("sim", Exec.Job.Sim);
      ("machine", Exec.Job.Machine Machine.Arch.default) ]

(* 2. a bench-style JSON document built under the pool has the same
   bytes whatever the worker count *)
let test_json_worker_independence () =
  let entries jobs =
    Exec.Pool.map ~jobs
      (fun (k : K.kernel) ->
        let o =
          Exec.Job.run
            (List.find
               (fun j -> j.Exec.Job.name = k.K.name)
               (kernel_jobs Exec.Job.Sim))
        in
        Obs.Bench_json.entry ~measured:(float_of_int o.Exec.Outcome.end_time)
          ~units:"instruction times" ~detail:"end time" ~ok:true k.K.name
          k.K.name)
      K.all
  in
  let bytes jobs =
    let path =
      Filename.temp_file "bench_pipeline" (Printf.sprintf "-j%d.json" jobs)
    in
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () ->
        Obs.Bench_json.write_file ~path
          ~meta:[ ("suite", Obs.Json.String "test") ]
          (entries jobs);
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic)))
  in
  let b1 = bytes 1 in
  check Alcotest.string "4 workers, same bytes" b1 (bytes 4);
  check Alcotest.string "8 workers, same bytes" b1 (bytes 8)

(* 3. one crashing job yields one Error at its submission index; the
   rest complete *)
let test_crash_isolation () =
  let results =
    Exec.Pool.map_result ~jobs:4
      (fun i -> if i = 2 then failwith "boom" else i * 10)
      [ 0; 1; 2; 3; 4 ]
  in
  List.iteri
    (fun i r ->
      match (i, r) with
      | 2, Error e ->
        check Alcotest.int "error index" 2 e.Exec.Pool.index;
        checkb "error message carries the exception" true
          (String.length e.Exec.Pool.message > 0
          && String.sub e.Exec.Pool.message 0 7 = "Failure")
      | 2, Ok _ -> Alcotest.fail "crashing job reported Ok"
      | i, Ok v -> check Alcotest.int "surviving job" (i * 10) v
      | i, Error e ->
        Alcotest.failf "job %d unexpectedly failed: %s" i e.Exec.Pool.message)
    results;
  (* Pool.map re-raises the first failure by submission order *)
  (match
     Exec.Pool.map ~jobs:4
       (fun i -> if i >= 3 then failwith (Printf.sprintf "f%d" i) else i)
       [ 0; 1; 2; 3; 4 ]
   with
  | _ -> Alcotest.fail "Pool.map swallowed the failure"
  | exception Exec.Pool.Job_failed e ->
    check Alcotest.int "first failure wins" 3 e.Exec.Pool.index);
  (* the same isolation for jobs: a job fed an input stream its graph
     does not have fails alone *)
  let k = List.hd K.all in
  let st = Random.State.make [| 7 |] in
  let _, compiled =
    D.compile_source ~scalar_inputs:k.K.scalar_inputs (k.K.source 8)
  in
  let good =
    Exec.Job.make ~name:"good"
      (Exec.Job.Graph_program compiled.Compiler.Program_compile.cp_graph)
      ~inputs:(D.feeds compiled (k.K.inputs 8 st))
  in
  let bad =
    { good with
      Exec.Job.name = "bad";
      inputs = ("no_such_input", []) :: good.Exec.Job.inputs }
  in
  (match Exec.Pool.map_result ~jobs:2 Exec.Job.run [ good; bad; good ] with
  | [ Ok _; Error _; Ok _ ] -> ()
  | rs ->
    Alcotest.failf "expected [Ok; Error; Ok], got [%s]"
      (String.concat "; "
         (List.map (function Ok _ -> "Ok" | Error _ -> "Error") rs)))

(* 4. the machine engine's default configuration is exactly the shared
   default with the machine time budget *)
let test_default_config () =
  let k = List.find (fun (k : K.kernel) -> k.K.name = "hydro") K.all in
  let st = Random.State.make [| Hashtbl.hash k.K.name |] in
  let _, compiled =
    D.compile_source ~scalar_inputs:k.K.scalar_inputs (k.K.source 12)
  in
  let g = compiled.Compiler.Program_compile.cp_graph in
  let inputs =
    List.map
      (fun (name, _) ->
        (name, List.assoc name (k.K.inputs 12 st)))
      compiled.Compiler.Program_compile.cp_inputs
  in
  let old_m = ME.run_cfg ME.default_config ~arch:Machine.Arch.default g ~inputs in
  let new_m =
    ME.run_cfg
      (Run_config.with_max_time ME.default_max_time Run_config.default)
      ~arch:Machine.Arch.default g ~inputs
  in
  checkb "machine outputs equal" true (old_m.ME.outputs = new_m.ME.outputs);
  check Alcotest.int "machine end time equal" old_m.ME.end_time
    new_m.ME.end_time

(* A configuration is plain values: one with the sanitizer on runs
   any number of times, one after another or at once, and each run is
   the straight run.  Shadow state shared between runs would stop every
   run after the first on false violations. *)
let test_one_config_many_runs () =
  let k = List.find (fun (k : K.kernel) -> k.K.name = "hydro") K.all in
  let g, inputs = Test_recover.kernel_feeds k ~n:8 ~waves:4 in
  let sim cfg =
    let r = Sim.Engine.run_cfg cfg g ~inputs in
    Sim.Engine.(r.end_time, r.quiescent, r.outputs, r.violations)
  in
  let machine cfg =
    let r = ME.run_cfg cfg ~arch:Machine.Arch.default g ~inputs in
    ME.(r.end_time, r.quiescent, r.outputs, r.violations)
  in
  List.iter
    (fun (name, run, cfg, end_time) ->
      let straight_end, _, straight_outputs, _ =
        run (Run_config.with_sanitize false cfg)
      in
      check Alcotest.int (name ^ ": straight run's end") end_time straight_end;
      let first = run cfg in
      let second = run cfg in
      let runs = first :: second :: Exec.Pool.map ~jobs:2 run [ cfg; cfg ] in
      List.iteri
        (fun i (t, quiescent, outputs, violations) ->
          let what = Printf.sprintf "%s run %d" name (i + 1) in
          check Alcotest.int (what ^ ": end time") end_time t;
          checkb (what ^ ": quiescent") true quiescent;
          checkb (what ^ ": outputs") true (outputs = straight_outputs);
          check
            Alcotest.(list string)
            (what ^ ": violations") []
            (List.map Fault.Violation.to_string violations))
        runs)
    [ ("graph", sim, Run_config.(default |> with_sanitize true), 157);
      ("machine", machine,
       Run_config.(
         ME.default_config |> with_recovery default_recovery
         |> with_sanitize true),
       723) ]

(* 5. sweep rows and JSON bytes are grid-ordered and worker-count
   independent *)
let test_sweep_determinism () =
  let kernels =
    List.filter
      (fun (k : K.kernel) -> List.mem k.K.name [ "hydro"; "tridiag" ])
      K.all
  in
  let cells =
    Exec.Sweep.grid ~kernels ~pes:[ 1; 4 ] ~waves:[ 2 ] ~size:8
  in
  check Alcotest.int "grid size" 4 (List.length cells);
  let doc jobs = Obs.Json.to_string (Exec.Sweep.to_json (Exec.Sweep.run_grid ~jobs cells)) in
  let d1 = doc 1 in
  check Alcotest.string "sweep bytes, 3 workers" d1 (doc 3);
  List.iter2
    (fun (c : Exec.Sweep.cell) r ->
      match r with
      | Ok (row : Exec.Sweep.row) ->
        check Alcotest.string "row kernel in grid order"
          c.Exec.Sweep.kernel.K.name row.Exec.Sweep.r_kernel;
        check Alcotest.int "row pe in grid order" c.Exec.Sweep.n_pe
          row.Exec.Sweep.r_pe;
        checkb (row.Exec.Sweep.r_kernel ^ " cell ok") true
          row.Exec.Sweep.r_ok
      | Error (e : Exec.Pool.error) ->
        Alcotest.failf "cell failed: %s" e.Exec.Pool.message)
    cells
    (Exec.Sweep.run_grid ~jobs:2 cells)

(* ---------------- persistent pool under contention ---------------- *)

(* Many more jobs than workers: every job runs exactly once, awaits
   collect in submission order regardless of completion order, and the
   pool drains completely. *)
let test_pool_contention () =
  let pool = Exec.Pool.create ~workers:3 () in
  Fun.protect
    ~finally:(fun () -> Exec.Pool.shutdown pool)
    (fun () ->
      let n = 64 in
      let ran = Atomic.make 0 in
      let tickets =
        List.init n (fun i ->
            Exec.Pool.submit pool (fun () ->
                (* stagger so completion order differs from submission *)
                if i mod 7 = 0 then Unix.sleepf 0.002;
                Atomic.incr ran;
                i * i))
      in
      let results = List.map Exec.Pool.await tickets in
      check Alcotest.int "every job ran exactly once" n (Atomic.get ran);
      List.iteri
        (fun i r ->
          match r with
          | Exec.Pool.Done v ->
            check Alcotest.int "await i returns job i's value" (i * i) v
          | Exec.Pool.Failed f -> Alcotest.failf "job %d failed: %s" i f.Exec.Pool.message
          | Exec.Pool.Cancelled -> Alcotest.failf "job %d cancelled" i)
        results;
      (* a raising thunk settles Failed without poisoning the pool *)
      let bad = Exec.Pool.submit pool (fun () -> failwith "boom") in
      (match Exec.Pool.await bad with
      | Exec.Pool.Failed f ->
        checkb "failure message preserved" true
          (String.length f.Exec.Pool.message > 0)
      | _ -> Alcotest.fail "expected Failed");
      match Exec.Pool.await (Exec.Pool.submit pool (fun () -> 41 + 1)) with
      | Exec.Pool.Done 42 -> ()
      | _ -> Alcotest.fail "pool unusable after a job failure")

(* Queued jobs can be cancelled before a worker picks them up; running
   or settled jobs cannot. *)
let test_pool_cancellation () =
  let pool = Exec.Pool.create ~workers:1 () in
  Fun.protect
    ~finally:(fun () -> Exec.Pool.shutdown pool)
    (fun () ->
      (* occupy the single worker until released *)
      let release = Atomic.make false in
      let blocker =
        Exec.Pool.submit pool (fun () ->
            while not (Atomic.get release) do
              Unix.sleepf 0.001
            done;
            "done")
      in
      let ran = Atomic.make 0 in
      let queued =
        List.init 8 (fun i ->
            Exec.Pool.submit pool (fun () ->
                Atomic.incr ran;
                i))
      in
      (* cancel half of them while the worker is still blocked *)
      let cancelled =
        List.filteri (fun i _ -> i mod 2 = 0) queued
        |> List.map Exec.Pool.cancel
      in
      checkb "queued jobs cancel" true (List.for_all Fun.id cancelled);
      Atomic.set release true;
      (match Exec.Pool.await blocker with
      | Exec.Pool.Done "done" -> ()
      | _ -> Alcotest.fail "blocker should finish");
      checkb "running job cannot be cancelled" false
        (Exec.Pool.cancel blocker);
      List.iteri
        (fun i t ->
          match (i mod 2 = 0, Exec.Pool.await t) with
          | true, Exec.Pool.Cancelled -> ()
          | true, _ -> Alcotest.failf "job %d should be Cancelled" i
          | false, Exec.Pool.Done v ->
            check Alcotest.int "survivor returns its value" i v
          | false, _ -> Alcotest.failf "job %d should be Done" i)
        queued;
      check Alcotest.int "cancelled jobs never ran" 4 (Atomic.get ran);
      checkb "settled job cannot be cancelled" false
        (Exec.Pool.cancel (List.nth queued 1)))

(* Shutdown settles still-queued work as Cancelled and rejects new
   submissions instead of hanging them. *)
let test_pool_shutdown () =
  let pool = Exec.Pool.create ~workers:1 () in
  let started = Atomic.make false in
  let blocker =
    Exec.Pool.submit pool (fun () ->
        Atomic.set started true;
        (* long enough that shutdown's queue drain below runs while the
           worker is still in here *)
        Unix.sleepf 0.2)
  in
  (* only submit the doomed job once the worker is provably busy *)
  while not (Atomic.get started) do
    Unix.sleepf 0.001
  done;
  let queued = Exec.Pool.submit pool (fun () -> "never") in
  Exec.Pool.shutdown pool;
  (match Exec.Pool.await blocker with
  | Exec.Pool.Done () -> ()
  | _ -> Alcotest.fail "running job finishes across shutdown");
  (match Exec.Pool.await queued with
  | Exec.Pool.Cancelled -> ()
  | _ -> Alcotest.fail "queued job is Cancelled by shutdown");
  match Exec.Pool.await (Exec.Pool.submit pool (fun () -> "late")) with
  | Exec.Pool.Cancelled -> ()
  | _ -> Alcotest.fail "post-shutdown submit settles Cancelled"

(* A firing allocates nothing: both engines keep operands in unboxed
   slots.  What a run allocates in the minor heap grows with its waves
   only by its output packets: each Output firing's boxed (time, value)
   pair and the list cell holding it, and the cell the result's list is
   reversed into.  Counted as the minor words that 32 more waves add, so
   a run's set-up cancels out; the input streams of both runs are past
   the minor heap's largest block, so neither side counts them. *)
let test_firing_allocates_nothing () =
  let size = 32 in
  let boxed = function Dfg.Value.Int _ -> 2 | Real _ -> 4 | Bool _ -> 0 in
  List.iter
    (fun (k : K.kernel) ->
      let _, cp =
        D.compile_source ~scalar_inputs:k.K.scalar_inputs (k.K.source size)
      in
      let a = Arena.build cp.Compiler.Program_compile.cp_graph in
      let wave = K.seeded_inputs k size in
      let graph inputs =
        let r = Sim.Engine.run_arena Run_config.default a ~inputs in
        (Array.fold_left ( + ) 0 r.Sim.Engine.fire_counts, r.Sim.Engine.outputs)
      in
      let machine inputs =
        let r =
          ME.run_arena ME.default_config ~arch:Machine.Arch.default a ~inputs
        in
        (r.ME.stats.ME.dispatches, r.ME.outputs)
      in
      List.iter
        (fun (engine, run) ->
          (* minor words beyond the output packets', and firings *)
          let words waves =
            let inputs = D.feeds ~waves cp wave in
            ignore (run inputs);
            let before = Gc.minor_words () in
            let firings, outputs = run inputs in
            let words = Gc.minor_words () -. before in
            let packets =
              List.fold_left
                (fun acc (_, pkts) ->
                  List.fold_left (fun acc (_, v) -> acc + 9 + boxed v) acc pkts)
                0 outputs
            in
            (words -. float_of_int packets, firings)
          in
          let w16, f16 = words 16 and w48, f48 = words 48 in
          let per_firing = (w48 -. w16) /. float_of_int (f48 - f16) in
          if per_firing > 0.05 then
            Alcotest.failf
              "%s, %s: %.3f minor words per firing beyond the output packets"
              k.K.name engine per_firing)
        [ ("graph engine", graph); ("machine engine", machine) ])
    K.all

let suite =
  [
    Alcotest.test_case "parallel == sequential (all kernels, 2/4/8 workers)"
      `Slow test_parallel_identity;
    Alcotest.test_case "bench JSON bytes are worker-count independent" `Quick
      test_json_worker_independence;
    Alcotest.test_case "a crashing job is isolated" `Quick
      test_crash_isolation;
    Alcotest.test_case "default_config == default + machine time budget"
      `Quick test_default_config;
    Alcotest.test_case "sweep grid is deterministic" `Quick
      test_sweep_determinism;
    Alcotest.test_case "persistent pool under contention" `Quick
      test_pool_contention;
    Alcotest.test_case "queued-job cancellation" `Quick test_pool_cancellation;
    Alcotest.test_case "shutdown cancels queued work" `Quick
      test_pool_shutdown;
    Alcotest.test_case "one config, many runs" `Quick
      test_one_config_many_runs;
    Alcotest.test_case "a firing allocates nothing beyond output packets"
      `Quick test_firing_allocates_nothing;
  ]
