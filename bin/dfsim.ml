(* dfsim: compile a Val program and simulate it on the static dataflow
   machine.  Input arrays are synthesized deterministically (--seed) or
   read from simple text files of one number per line (--input NAME=FILE).

   The run flags (Run_flags: --seed --waves --machine --pe --stored
   --fault --recover --integrity --watchdog --sanitize --values-out
   --metrics-out) build the same Serve.Protocol.run a dfclient simulate
   request carries, and the run goes through the service's resolver,
   Serve.Server.job_of_run: with the same flags, dfsim and a served run
   produce byte-identical values and metrics.

   Examples:
     dfsim program.val --waves 8
     dfsim program.val --input C=c.txt --input B=b.txt
     dfsim program.val --machine --pe 16 --stored
     dfsim program.val --trace t.json --metrics-out m.json
     dfsim program.val --machine --recover --fault crash-pe=3,crash-at=150
*)

module PC = Compiler.Program_compile
module D = Compiler.Driver
module ME = Machine.Machine_engine
module Arch = Machine.Arch

(* ---------------- observability sinks ---------------- *)

let tracer_for = function
  | None -> Obs.Tracer.null
  | Some _ -> Obs.Tracer.create ()

(* one Perfetto track per instruction cell (graph-level simulator) *)
let graph_tracks g =
  let acc = ref [] in
  Dfg.Graph.iter_nodes g (fun n ->
      acc :=
        ( n.Dfg.Graph.id,
          Printf.sprintf "%s#%d %s" n.Dfg.Graph.label n.Dfg.Graph.id
            (Dfg.Opcode.name n.Dfg.Graph.op) )
        :: !acc);
  List.rev !acc

(* one Perfetto track per processing element (machine simulator) *)
let pe_tracks n_pe =
  List.init (max 1 n_pe) (fun i -> (i, Printf.sprintf "PE %d" i))

let write_trace ~tracks tracer = function
  | None -> ()
  | Some path ->
    Obs.Perfetto.write_file ~path ~process_name:"dfsim" ~track_names:tracks
      (Obs.Tracer.events tracer);
    Printf.printf "wrote trace %s (%d events%s)\n" path
      (Obs.Tracer.length tracer)
      (if Obs.Tracer.dropped tracer > 0 then
         Printf.sprintf ", %d dropped" (Obs.Tracer.dropped tracer)
       else "")

let write_metrics m = function
  | None -> ()
  | Some path ->
    Obs.Metrics_registry.write_file m path;
    Printf.printf "wrote metrics %s\n" path

(* the diffable output-stream dump shared with dfclient *)
let write_values outputs = function
  | None -> ()
  | Some path ->
    Runspec.write_values ~path outputs;
    Printf.printf "wrote values %s\n" path

(* Fault/sanitizer diagnostics shared by both engines.  A [Deadlock]
   report at quiescence is the normal end state of a primed feedback
   loop, so it is only printed on request. *)
let print_diagnostics ?(show_deadlock = false) ~violations ~stall () =
  List.iter
    (fun v -> Printf.printf "%s\n" (Fault.Violation.to_string v))
    violations;
  match stall with
  | Some sr when show_deadlock || Fault.Stall_report.unexpected stall ->
    print_string (Fault.Stall_report.to_string sr)
  | Some _ | None -> ()

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let read_floats path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> (
          let line = String.trim line in
          if line = "" then go acc
          else
            match float_of_string_opt line with
            | Some f -> go (f :: acc)
            | None -> failwith (Printf.sprintf "%s: bad number %S" path line))
        | exception End_of_file -> List.rev acc
      in
      go [])

(* A .dfg machine program records no array shapes, so a loaded graph is
   fed like a compiled program whose every input is a real array of
   [loaded_wave] elements; the graph consumes what it needs. *)
let loaded_wave = 256

let load_program path =
  let g = Dfg.Text.read_file path in
  let shape =
    { Val_lang.Classify.sh_elt = Val_lang.Ast.Treal;
      sh_ranges = [ (0, loaded_wave - 1) ] }
  in
  { PC.cp_graph = g;
    cp_inputs = List.map (fun (name, _) -> (name, shape)) (Dfg.Graph.inputs g);
    cp_outputs = [];
    cp_shifts = Hashtbl.create 0;
    cp_schemes = [] }

(* one wave per input: the run's own, or --input NAME=FILE's values *)
let input_waves input_files (r : Serve.Protocol.run) compiled =
  List.map
    (fun (name, wave) ->
      match List.assoc_opt name input_files with
      | None -> (name, wave)
      | Some file ->
        let vals = read_floats file in
        if List.length vals <> List.length wave then
          failwith
            (Printf.sprintf "input %s: %d values, expected %d" name
               (List.length vals) (List.length wave));
        (name, D.wave_of_floats vals))
    (Serve.Server.input_waves r.Serve.Protocol.program compiled)

let run_machine (cfg : Run_config.t) ~arch g ~inputs ~restore_from
    ~checkpoint_out =
  let m = ME.create_cfg cfg ~arch g ~inputs in
  (match restore_from with
  | None -> ()
  | Some p -> (
    match Recover.Checkpoint.load ~path:p ~graph:g with
    | Ok sn ->
      ME.restore m sn;
      Printf.printf "restored checkpoint %s (t=%d)\n" p sn.ME.sn_time
    | Error e ->
      failwith
        (Printf.sprintf "--restore %s: %s" p
           (Recover.Checkpoint.load_error_to_string e))));
  ME.advance m ~until:max_int;
  let r = ME.result m in
  (* a deadlock caused by a dead PE is never the benign end state of a
     primed loop: always show it *)
  let show_deadlock =
    match r.ME.stall with
    | Some sr -> sr.Fault.Stall_report.sr_dead_pes <> []
    | None -> false
  in
  print_diagnostics ~show_deadlock ~violations:r.ME.violations
    ~stall:r.ME.stall ();
  (* machine mode has no interpreter oracle, so a silently-corrupted run
     would otherwise look healthy — say so up front *)
  (match cfg.Run_config.fault with
  | Some plan
    when Fault.Fault_plan.has_corruption plan && not cfg.Run_config.integrity
    ->
    print_endline
      "warning: corruption faults injected with integrity checking \
       disabled — outputs may be silently wrong (add --integrity to \
       detect, plus --recover to heal)"
  | _ -> ());
  Printf.printf "machine: %s\n" (Arch.describe arch);
  (match cfg.Run_config.recovery with
  | Some p -> Printf.printf "recovery: %s\n" (Recover.describe p)
  | None -> ());
  Printf.printf "finished at t=%d (quiescent=%b)\n" r.ME.end_time
    r.ME.quiescent;
  let s = r.ME.stats in
  Printf.printf
    "dispatches=%d fu=%d am=%d results=%d acks=%d am-fraction=%.3f\n"
    s.ME.dispatches s.ME.fu_ops s.ME.am_ops s.ME.result_packets
    s.ME.ack_packets (ME.am_fraction s);
  if cfg.Run_config.recovery <> None then
    Printf.printf "retransmits=%d checkpoints=%d recoveries=%d\n"
      s.ME.retransmits r.ME.checkpoints r.ME.recoveries;
  if s.ME.corruptions > 0 || s.ME.corrupt_detected > 0 then
    Printf.printf "corruptions=%d detected=%d healed=%d\n" s.ME.corruptions
      s.ME.corrupt_detected s.ME.corrupt_healed;
  (match checkpoint_out with
  | None -> ()
  | Some p ->
    Recover.Checkpoint.save ~path:p ~graph:g (ME.snapshot m);
    Printf.printf "wrote checkpoint %s (t=%d)\n" p r.ME.end_time);
  (Exec.Outcome.metrics_of_machine r, r.ME.outputs)

(* [prog] pairs a compiled program's Val source with the input waves
   the interpreter checks it on; a loaded graph has neither *)
let run_sim (cfg : Run_config.t) g ~inputs ~prog ~compiled ~no_check
    ~report =
  (match cfg.Run_config.fault with
  | Some plan when not (Fault.Fault_plan.delay_only plan) ->
    print_endline
      "note: the graph-level simulator honours delay faults only (use \
       --machine for dup/drop-ack/stall/slowdown)"
  | _ -> ());
  let result =
    Sim.Engine.run_cfg (Run_config.with_record_firings report cfg) g ~inputs
  in
  print_diagnostics ~violations:result.Sim.Engine.violations
    ~stall:result.Sim.Engine.stuck ();
  (match prog with
  | None ->
    List.iter
      (fun (name, _) ->
        Printf.printf "%s: %d packets, interval %.3f\n" name
          (List.length (Sim.Engine.output_values result name))
          (Sim.Metrics.output_interval result name))
      result.Sim.Engine.outputs
  | Some (prog, waves) ->
    if not no_check then begin
      D.check_against_oracle prog compiled result ~inputs:waves;
      print_endline "outputs verified against the Val interpreter"
    end;
    List.iter
      (fun (name, _) ->
        let interval = Sim.Metrics.output_interval result name in
        let wave = D.output_wave compiled result name in
        Printf.printf "%s: %d elements/wave, interval %.3f\n" name
          (List.length wave) interval;
        let shown = List.filteri (fun i _ -> i < 8) wave in
        Printf.printf "  [%s%s]\n"
          (String.concat ", " (List.map Dfg.Value.to_string shown))
          (if List.length wave > 8 then ", ..." else ""))
      compiled.PC.cp_outputs);
  if report then print_string (Sim.Report.render g result);
  (Exec.Outcome.metrics_of_sim result, result.Sim.Engine.outputs)

let run (flags : Run_flags.t) path input_files no_check report load
    trace_out checkpoint_out restore_from =
  try
    let source = read_file path in
    let r =
      flags.Run_flags.run
        (Serve.Protocol.Source
           { source; scalars = []; input_seed = flags.Run_flags.seed })
    in
    if
      r.Serve.Protocol.engine = `Sim
      && (r.Serve.Protocol.recovery <> None || r.Serve.Protocol.integrity
          || checkpoint_out <> None || restore_from <> None)
    then
      failwith
        "--recover/--integrity/--checkpoint-out/--restore apply to the \
         machine simulator (add --machine)";
    let prog, compiled =
      if load then (None, load_program path)
      else
        let prog, compiled = D.compile_source source in
        (Some prog, compiled)
    in
    let waves = input_waves input_files r compiled in
    let job =
      match Serve.Server.job_of_run r compiled with
      | Error e -> failwith e
      | Ok job when input_files = [] -> job
      | Ok job ->
        { job with
          Exec.Job.inputs =
            D.feeds ~waves:r.Serve.Protocol.waves compiled waves }
    in
    let g = Exec.Job.graph job in
    let inputs = job.Exec.Job.inputs in
    let tracer = tracer_for trace_out in
    let cfg = Run_config.with_tracer tracer (Exec.Job.run_config job) in
    let metrics, outputs, tracks =
      match job.Exec.Job.engine with
      | Exec.Job.Machine arch ->
        let metrics, outputs =
          run_machine cfg ~arch g ~inputs ~restore_from ~checkpoint_out
        in
        (metrics, outputs, pe_tracks arch.Arch.n_pe)
      | Exec.Job.Sim ->
        let prog = Option.map (fun prog -> (prog, waves)) prog in
        let metrics, outputs =
          run_sim cfg g ~inputs ~prog ~compiled ~no_check ~report
        in
        (metrics, outputs, graph_tracks g)
    in
    write_trace ~tracks tracer trace_out;
    write_metrics metrics flags.Run_flags.metrics_out;
    write_values outputs flags.Run_flags.values_out;
    `Ok ()
  with
  | Sys_error msg | Failure msg -> `Error (false, msg)
  | Val_lang.Parser.Parse_error (msg, line, col) ->
    `Error (false, Printf.sprintf "%s:%d:%d: %s" path line col msg)
  | Val_lang.Classify.Not_in_class msg | Compiler.Driver.Mismatch msg ->
    `Error (false, msg)
  | Compiler.Expr_compile.Unsupported msg -> `Error (false, msg)

let cmd =
  let open Cmdliner in
  let path =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"Val source file")
  in
  let input_files =
    Arg.(value & opt_all (pair ~sep:'=' string file) []
         & info [ "input" ] ~docv:"NAME=FILE"
             ~doc:"read an input array from a file (one number per line)")
  in
  let no_check =
    Arg.(value & flag
         & info [ "no-check" ] ~doc:"skip the interpreter oracle comparison")
  in
  let report =
    Arg.(value & flag
         & info [ "report" ]
             ~doc:"print per-cell firing statistics of the run (busiest \
                   stages, utilization, concurrency; graph-level simulator)")
  in
  let load =
    Arg.(value & flag
         & info [ "load" ]
             ~doc:"FILE is a compiled .dfg machine program (from valc \
                   --save) rather than Val source; each input is fed \
                   waves of 256 synthesized reals")
  in
  let trace_out =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"OUT"
             ~doc:"write a Chrome trace-event (Perfetto) JSON of the run: \
                   one track per instruction cell (or per PE with \
                   --machine), one slice per firing; open in \
                   ui.perfetto.dev or chrome://tracing")
  in
  let checkpoint_out =
    Arg.(value & opt (some string) None
         & info [ "checkpoint-out" ] ~docv:"OUT"
             ~doc:"write the final machine state as a versioned checkpoint \
                   (machine mode); a later run can --restore it")
  in
  let restore_from =
    Arg.(value & opt (some string) None
         & info [ "restore" ] ~docv:"FILE"
             ~doc:"restore machine state from a checkpoint written by \
                   --checkpoint-out before running (machine mode); the \
                   resumed run is bit-identical to the one that saved it")
  in
  let term =
    Term.(ret (const run $ Run_flags.term $ path $ input_files $ no_check
               $ report $ load $ trace_out $ checkpoint_out $ restore_from))
  in
  Cmd.v
    (Cmd.info "dfsim" ~version:"1.0"
       ~doc:"simulate compiled Val programs on a static dataflow machine")
    term

let () = exit (Cmdliner.Cmd.eval cmd)
