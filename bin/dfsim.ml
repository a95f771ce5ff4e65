(* dfsim: compile a Val program and simulate it on the static dataflow
   machine.  Input arrays are synthesized deterministically (--seed) or
   read from simple text files of one number per line (--input NAME=FILE).

   Examples:
     dfsim program.val --waves 8
     dfsim program.val --input C=c.txt --input B=b.txt
     dfsim program.val --machine --pe 16 --stored
     dfsim program.val --trace t.json --metrics-json m.json
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

(* run-metric registries are shared with dfclient and the service *)
let sim_registry = Runspec.sim_registry
let machine_registry = Runspec.machine_registry

(* Fault/sanitizer diagnostics shared by the three run paths.  A
   [Deadlock] report at quiescence is the normal end state of a primed
   feedback loop, so it is only printed on request. *)
let print_diagnostics ?(show_deadlock = false) ~violations ~stall () =
  List.iter
    (fun v -> Printf.printf "%s\n" (Fault.Violation.to_string v))
    violations;
  match stall with
  | Some sr
    when show_deadlock
         || sr.Fault.Stall_report.sr_reason <> Fault.Stall_report.Deadlock ->
    print_string (Fault.Stall_report.to_string sr)
  | Some _ | None -> ()

let parse_recover_opt = function
  | None -> None
  | Some spec -> (
    match Runspec.recovery_of_string spec with
    | Ok p -> Some p
    | Error msg -> failwith (Printf.sprintf "--recover %s: %s" spec msg))

let parse_fault_opts inject sanitize watchdog =
  let fault =
    match inject with
    | None -> None
    | Some spec -> (
      match Runspec.fault_plan_of_string spec with
      | Ok plan -> Some plan
      | Error msg -> failwith (Printf.sprintf "--inject %s: %s" spec msg))
  in
  let sanitizer g =
    if sanitize then Fault.Sanitizer.create g else Fault.Sanitizer.null
  in
  (fault, sanitizer, watchdog)

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

let synth_wave = Runspec.synth_wave

(* Run a pre-compiled .dfg machine program (no oracle available). *)
let run_loaded path waves seed report trace_out metrics_out values_out ~fault
    ~sanitizer ~watchdog =
  let g = Dfg.Text.read_file path in
  let sanitizer = sanitizer g in
  let inputs =
    List.map
      (fun (name, id) ->
        ignore id;
        (* wave size is not recorded in the .dfg; synthesize a generous
           stream and let the graph consume what it needs *)
        let st = Random.State.make [| seed; Hashtbl.hash name |] in
        (name,
         List.init (waves * 256) (fun _ ->
             Dfg.Value.Real (Random.State.float st 2.0 -. 1.0))))
      (Dfg.Graph.inputs g)
  in
  let tracer = tracer_for trace_out in
  let cfg =
    Run_config.(
      default |> with_record_firings report |> with_tracer tracer
      |> with_fault_opt fault |> with_sanitizer sanitizer
      |> with_watchdog_opt watchdog)
  in
  let result = Sim.Engine.run_cfg cfg g ~inputs in
  print_diagnostics ~violations:result.Sim.Engine.violations
    ~stall:result.Sim.Engine.stuck ();
  List.iter
    (fun (name, _) ->
      let values = Sim.Engine.output_values result name in
      Printf.printf "%s: %d packets, interval %.3f
" name
        (List.length values)
        (Sim.Metrics.output_interval result name))
    result.Sim.Engine.outputs;
  if report then print_string (Sim.Report.render g result);
  write_trace ~tracks:(graph_tracks g) tracer trace_out;
  write_metrics (sim_registry result) metrics_out;
  write_values result.Sim.Engine.outputs values_out;
  `Ok ()

let run path waves seed input_files machine pe stored no_check report load
    trace_out metrics_out values_out inject sanitize watchdog recover
    integrity checkpoint_out restore_from =
  try
    let fault, sanitizer, watchdog =
      parse_fault_opts inject sanitize watchdog
    in
    let recovery = parse_recover_opt recover in
    if
      (not machine)
      && (recovery <> None || integrity || checkpoint_out <> None
          || restore_from <> None)
    then
      failwith
        "--recover/--integrity/--checkpoint/--restore apply to the machine \
         simulator (add --machine)";
    if load then
      run_loaded path waves seed report trace_out metrics_out values_out
        ~fault ~sanitizer ~watchdog
    else begin
    let source = read_file path in
    let prog, compiled = D.compile_source source in
    let inputs =
      List.map
        (fun (name, shape) ->
          let size = PC.wave_size shape in
          match List.assoc_opt name input_files with
          | Some file ->
            let vals = read_floats file in
            if List.length vals <> size then
              failwith
                (Printf.sprintf "input %s: %d values, expected %d" name
                   (List.length vals) size);
            (name, List.map (fun f -> Dfg.Value.Real f) vals)
          | None ->
            (name, synth_wave ~seed ~elt:shape.Val_lang.Classify.sh_elt ~size name))
        compiled.PC.cp_inputs
    in
    if machine then begin
      let arch =
        { Arch.default with
          Arch.n_pe = pe;
          array_policy = (if stored then Arch.Stored else Arch.Streamed);
        }
      in
      let feeds =
        List.map
          (fun (n, w) ->
            (n, List.concat_map (fun _ -> w) (List.init waves Fun.id)))
          inputs
      in
      let tracer = tracer_for trace_out in
      let g = compiled.PC.cp_graph in
      let cfg =
        Run_config.(
          default |> with_max_time ME.default_max_time |> with_tracer tracer
          |> with_fault_opt fault |> with_sanitizer (sanitizer g)
          |> with_watchdog_opt watchdog |> with_recovery_opt recovery
          |> with_integrity integrity)
      in
      let m = ME.create_cfg cfg ~arch g ~inputs:feeds in
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
      (* a deadlock caused by a dead PE is never the benign end state of
         a primed loop: always show it *)
      let show_deadlock =
        match r.ME.stall with
        | Some sr -> sr.Fault.Stall_report.sr_dead_pes <> []
        | None -> false
      in
      print_diagnostics ~show_deadlock ~violations:r.ME.violations
        ~stall:r.ME.stall ();
      (* machine mode has no interpreter oracle, so a silently-corrupted
         run would otherwise look healthy — say so up front *)
      (match fault with
      | Some plan when Fault.Fault_plan.has_corruption plan && not integrity
        ->
        print_endline
          "warning: corruption faults injected with integrity checking \
           disabled — outputs may be silently wrong (add --integrity to \
           detect, plus --recover to heal)"
      | _ -> ());
      Printf.printf "machine: %s\n" (Arch.describe arch);
      (match recovery with
      | Some p -> Printf.printf "recovery: %s\n" (Recover.describe p)
      | None -> ());
      Printf.printf "finished at t=%d (quiescent=%b)\n" r.ME.end_time
        r.ME.quiescent;
      let s = r.ME.stats in
      Printf.printf
        "dispatches=%d fu=%d am=%d results=%d acks=%d am-fraction=%.3f\n"
        s.ME.dispatches s.ME.fu_ops s.ME.am_ops s.ME.result_packets
        s.ME.ack_packets (ME.am_fraction s);
      if recovery <> None then
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
      write_trace ~tracks:(pe_tracks arch.Arch.n_pe) tracer trace_out;
      write_metrics (machine_registry r) metrics_out;
      write_values r.ME.outputs values_out
    end
    else begin
      let tracer = tracer_for trace_out in
      (match fault with
      | Some plan when not (Fault.Fault_plan.delay_only plan) ->
        print_endline
          "note: the graph-level simulator honours delay faults only \
           (use --machine for dup/drop-ack/stall/slowdown)"
      | _ -> ());
      let cfg =
        Run_config.(
          default |> with_tracer tracer |> with_fault_opt fault
          |> with_sanitizer (sanitizer compiled.PC.cp_graph)
          |> with_watchdog_opt watchdog)
      in
      let result = D.run_cfg ~waves cfg compiled ~inputs in
      print_diagnostics ~violations:result.Sim.Engine.violations
        ~stall:result.Sim.Engine.stuck ();
      if not no_check then begin
        D.check_against_oracle prog compiled result ~inputs;
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
        compiled.PC.cp_outputs;
      if report then begin
        let r2 =
          D.run_cfg ~waves
            Run_config.(default |> with_record_firings true)
            compiled ~inputs
        in
        print_string (Sim.Report.render compiled.PC.cp_graph r2)
      end;
      write_trace ~tracks:(graph_tracks compiled.PC.cp_graph) tracer trace_out;
      write_metrics (sim_registry result) metrics_out;
      write_values result.Sim.Engine.outputs values_out
    end;
    `Ok ()
    end
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
  let waves =
    Arg.(value & opt int 4
         & info [ "waves" ] ~docv:"N" ~doc:"input waves to stream")
  in
  let seed =
    Arg.(value & opt int 1
         & info [ "seed" ] ~docv:"SEED" ~doc:"seed for synthesized inputs")
  in
  let input_files =
    Arg.(value & opt_all (pair ~sep:'=' string file) []
         & info [ "input" ] ~docv:"NAME=FILE"
             ~doc:"read an input array from a file (one number per line)")
  in
  let machine =
    Arg.(value & flag
         & info [ "machine" ]
             ~doc:"run on the machine-level simulator (PE/FU/AM/RN)")
  in
  let pe =
    Arg.(value & opt int Arch.default.Arch.n_pe
         & info [ "pe" ] ~docv:"N" ~doc:"processing elements (machine mode)")
  in
  let stored =
    Arg.(value & flag
         & info [ "stored" ]
             ~doc:"store arrays in array memory (baseline) instead of \
                   streaming them")
  in
  let no_check =
    Arg.(value & flag
         & info [ "no-check" ] ~doc:"skip the interpreter oracle comparison")
  in
  let report =
    Arg.(value & flag
         & info [ "report" ]
             ~doc:"print per-cell firing statistics (busiest stages,                    utilization, concurrency)")
  in
  let load =
    Arg.(value & flag
         & info [ "load" ]
             ~doc:"FILE is a compiled .dfg machine program (from valc                    --save) rather than Val source")
  in
  let trace_out =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"OUT"
             ~doc:"write a Chrome trace-event (Perfetto) JSON of the run: \
                   one track per instruction cell (or per PE with \
                   --machine), one slice per firing; open in \
                   ui.perfetto.dev or chrome://tracing")
  in
  let metrics_out =
    Arg.(value & opt (some string) None
         & info [ "metrics-json" ] ~docv:"OUT"
             ~doc:"write run metrics (counters, gauges, histograms) as JSON")
  in
  let values_out =
    Arg.(value & opt (some string) None
         & info [ "values-out" ] ~docv:"OUT"
             ~doc:"write every output packet as one name/time/value line \
                   (reals in bit-exact hex-float form); dfclient writes the \
                   same format, so a served run diffs against a standalone \
                   one")
  in
  let inject =
    Arg.(value & opt (some string) None
         & info [ "inject" ] ~docv:"SPEC"
             ~doc:"inject deterministic faults; SPEC is comma-separated \
                   key=value with keys seed, delay, dup, drop-ack, drop, \
                   stall, corrupt, corrupt-ctl (probabilities), delay-max, \
                   stall-max, fu-slow, am-slow, crash-at (magnitudes), \
                   crash-pe (PE index), e.g. seed=7,delay=0.2,corrupt=0.05; \
                   the same SPEC always perturbs the same packets")
  in
  let sanitize =
    Arg.(value & flag
         & info [ "sanitize" ]
             ~doc:"shadow-check dataflow invariants (one token per arc, \
                   acknowledge conservation) and report violations instead \
                   of aborting")
  in
  let watchdog =
    Arg.(value & opt (some int) None
         & info [ "watchdog" ] ~docv:"N"
             ~doc:"stop and print a stall report if no cell fires for N \
                   consecutive time units while packets are in flight")
  in
  let recover =
    Arg.(value & opt ~vopt:(Some "") (some string) None
         & info [ "recover" ] ~docv:"SPEC"
             ~doc:"enable checkpoint/retransmission recovery (machine mode): \
                   lost packets and acknowledges are resent and a crash-pe \
                   fault rolls back to the last checkpoint instead of \
                   wedging.  SPEC is comma-separated key=int over every \
                   (checkpoint interval), timeout, backoff, retries; bare \
                   --recover uses the defaults")
  in
  let integrity =
    Arg.(value & flag
         & info [ "integrity" ]
             ~doc:"verify per-packet checksums at delivery (machine mode): a \
                   corrupted payload is detected and discarded instead of \
                   silently consumed; with --recover the producer's \
                   retransmission replaces it and the run heals")
  in
  let checkpoint_out =
    Arg.(value & opt (some string) None
         & info [ "checkpoint" ] ~docv:"OUT"
             ~doc:"write the final machine state as a versioned checkpoint \
                   JSON (machine mode); a later run can --restore it")
  in
  let restore_from =
    Arg.(value & opt (some string) None
         & info [ "restore" ] ~docv:"FILE"
             ~doc:"restore machine state from a checkpoint written by \
                   --checkpoint before running (machine mode); the resumed \
                   run is bit-identical to the one that saved it")
  in
  let term =
    Term.(ret (const run $ path $ waves $ seed $ input_files $ machine $ pe
               $ stored $ no_check $ report $ load $ trace_out $ metrics_out
               $ values_out $ inject $ sanitize $ watchdog $ recover
               $ integrity $ checkpoint_out $ restore_from))
  in
  Cmd.v
    (Cmd.info "dfsim" ~version:"1.0"
       ~doc:"simulate compiled Val programs on a static dataflow machine")
    term

let () = exit (Cmdliner.Cmd.eval cmd)
