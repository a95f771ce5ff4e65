(* dfclient: command-line face of the dfserve protocol.

   One invocation, one verb: compile, simulate, sweep, stats or
   shutdown, over the server's Unix socket or TCP listener.  simulate
   can dump output streams in the same name/time/%h-value text dfsim
   --values-out writes (so CI diffs a served run against a local one
   byte for byte), can preempt a long machine run (--preempt-after) to
   harvest a restorable checkpoint that dfsim --restore accepts, and
   with --retries rides the resilient retry/backoff path under an
   idempotency key, surviving server restarts.  sweep serves a kernel
   grid whose JSON matches sweep.exe's output byte for byte.  The run
   flags (--seed --waves --machine --pe --stored --fault --recover
   --integrity --watchdog --sanitize --values-out --metrics-out) are
   Run_flags's, shared with dfsim: the same flags name the same run.

   With --cluster a,b,c the simulate and stats verbs address a
   federation of dfserve members: simulate routes by rendezvous hash
   on the program and fails over to the next replica when a member is
   dead; stats probes every member.  The migrate verb submits a job to
   --socket, lets it run for --after seconds, then moves it live to
   --to and prints the migrated result.

   Structured server rejections exit with a distinct nonzero code per
   error kind (see rejection_exit below; documented in
   docs/SERVICE.md), so scripts can tell a rejected request from a
   transport failure (generic cmdliner exit 123). *)

module J = Obs.Json
module P = Serve.Protocol

(* A structured server rejection: the server answered, and said no.
   Distinct from transport failure, and exit-coded so shell callers can
   branch on the taxonomy without parsing stderr. *)
exception Rejected of P.error_kind * string

let rejection_exit = function
  | P.Bad_request -> 10
  | P.Malformed -> 11
  | P.Compile_error -> 12
  | P.Unknown_verb -> 13
  | P.Overloaded -> 14
  | P.Cancelled -> 15
  | P.Run_error -> 16
  | P.Shutting_down -> 17
  | P.Deadline -> 18
  | P.Replica_error -> 19

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let program_of kernel size source input_seed =
  match (kernel, source) with
  | Some _, Some _ -> failwith "give --kernel or --source, not both"
  | Some name, None -> P.Kernel { name; size }
  | None, Some path ->
    P.Source { source = read_file path; scalars = []; input_seed }
  | None, None -> failwith "simulate/compile need --kernel or --source"

let require_ok resp =
  if not (P.response_ok resp) then (
    match P.response_error resp with
    | Some (Some kind, msg) -> raise (Rejected (kind, msg))
    | Some (None, msg) -> failwith ("error: " ^ msg)
    | None -> failwith ("malformed response: " ^ J.to_string resp));
  resp

let print_simulate resp =
  let geti f = Option.value ~default:0 (J.get_int (J.member f resp)) in
  let getb f = Option.value ~default:false (J.get_bool (J.member f resp)) in
  Printf.printf "finished at t=%d (quiescent=%b) digest=%d cache_hit=%b\n"
    (geti "end_time") (getb "quiescent") (geti "digest") (getb "cache_hit");
  (match J.get_string (J.member "stall" resp) with
  | Some s -> Printf.printf "stall: %s\n" s
  | None -> ());
  match J.member "violations" resp with
  | J.List (_ :: _ as vs) ->
    List.iter
      (fun v ->
        match J.get_string v with
        | Some s -> Printf.printf "violation: %s\n" s
        | None -> ())
      vs
  | _ -> ()

let write_values_out resp = function
  | None -> ()
  | Some path -> (
    match P.outputs_of_json (J.member "outputs" resp) with
    | Ok outputs ->
      Runspec.write_values ~path outputs;
      Printf.printf "wrote values %s\n" path
    | Error e -> failwith ("outputs: " ^ e))

let write_metrics_out resp = function
  | None -> ()
  | Some path ->
    J.write_file path (J.member "metrics" resp);
    Printf.printf "wrote metrics %s\n" path

(* A preempted response carries the checkpoint as JSON; reframe it as
   the dfsnap2 file format so dfsim --restore accepts it.  Decoding it
   against the locally-compiled graph also validates the document. *)
let write_checkpoint_out program resp = function
  | None -> ()
  | Some path -> (
    match J.member "checkpoint" resp with
    | J.Null -> failwith "response carries no checkpoint"
    | doc -> (
      match Serve.Server.compile_program program with
      | Error e -> failwith ("recompile for checkpoint: " ^ e)
      | Ok { Compiler.Program_compile.cp_graph = graph; _ } -> (
        match Recover.Checkpoint.of_json ~arena:(Arena.build graph) doc with
        | Error e -> failwith ("checkpoint: " ^ e)
        | Ok snapshot ->
          Recover.Checkpoint.save ~path ~graph snapshot;
          Printf.printf "wrote checkpoint %s (t=%d)\n" path
            snapshot.Machine.Machine_engine.sn_time)))

let finish_simulate program resp values_out metrics_out checkpoint_out =
  match P.response_error resp with
  | Some (Some P.Cancelled, _) when checkpoint_out <> None ->
    print_endline "preempted; checkpoint returned";
    write_checkpoint_out program resp checkpoint_out
  | Some (Some kind, msg) -> raise (Rejected (kind, msg))
  | Some (None, msg) -> failwith ("error: " ^ msg)
  | None ->
    print_simulate resp;
    write_values_out resp values_out;
    write_metrics_out resp metrics_out

let main verb socket tcp cluster to_addr after timeout retries idem kernel
    size source (flags : Run_flags.t) max_time pes sweep_waves kernels out
    checkpoint_out preempt_after =
  let values_out = flags.Run_flags.values_out
  and metrics_out = flags.Run_flags.metrics_out in
  let run_of program =
    { (flags.Run_flags.run program) with P.max_time; idem }
  in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let addr = match tcp with Some hp -> "tcp:" ^ hp | None -> socket in
  let retry =
    if retries > 0 then { Serve.Client.default_retry with attempts = retries }
    else Serve.Client.default_retry
  in
  let cluster_of spec =
    match Runspec.members_of_string spec with
    | Error e -> failwith ("--cluster " ^ e)
    | Ok members -> Serve.Cluster.create ?deadline:timeout ~retry members
  in
  let with_conn f =
    let conn = Serve.Client.connect ~retries:20 ?deadline:timeout addr in
    Fun.protect ~finally:(fun () -> Serve.Client.close conn) (fun () -> f conn)
  in
  match verb with
  | "stats" -> (
    match cluster with
    | Some spec ->
      let t = cluster_of spec in
      let probes = Serve.Cluster.probe ?deadline:timeout t in
      List.iter2
        (fun (maddr, outcome) (_, h) ->
          match outcome with
          | Ok resp ->
            Printf.printf "%s %s %s\n" maddr
              (Serve.Cluster.health_to_string h)
              (J.to_string resp)
          | Error e ->
            Printf.printf "%s %s (%s)\n" maddr
              (Serve.Cluster.health_to_string h)
              e)
        probes (Serve.Cluster.health t)
    | None ->
      with_conn (fun conn ->
          print_endline
            (J.to_string (require_ok (Serve.Client.rpc conn P.Stats)))))
  | "members" ->
    (* one line per member, grep-friendly: ADDR STATE [target] *)
    with_conn (fun conn ->
        let resp = require_ok (Serve.Client.rpc conn P.Members) in
        Printf.printf "self=%s replicas=%d\n"
          (Option.value ~default:"?" (J.get_string (J.member "self" resp)))
          (Option.value ~default:0 (J.get_int (J.member "replicas" resp)));
        match J.member "members" resp with
        | J.List ms ->
          List.iter
            (fun m ->
              Printf.printf "%s %s%s\n"
                (Option.value ~default:"?" (J.get_string (J.member "addr" m)))
                (Option.value ~default:"?"
                   (J.get_string (J.member "state" m)))
                (if Option.value ~default:false
                      (J.get_bool (J.member "target" m))
                 then " target"
                 else ""))
            ms
        | _ -> ())
  | "shutdown" ->
    with_conn (fun conn ->
        ignore (require_ok (Serve.Client.rpc conn P.Shutdown));
        print_endline "server shutting down")
  | "compile" ->
    with_conn (fun conn ->
        let program = program_of kernel size source flags.Run_flags.seed in
        let resp = require_ok (Serve.Client.rpc conn (P.Compile program)) in
        Printf.printf "key=%d cache_hit=%b cells=%d\n"
          (Option.value ~default:0 (J.get_int (J.member "key" resp)))
          (Option.value ~default:false
             (J.get_bool (J.member "cache_hit" resp)))
          (Option.value ~default:0 (J.get_int (J.member "cells" resp))))
  | "sweep" ->
    with_conn (fun conn ->
        let s =
          { P.sw_kernels = kernels;
            sw_pes = pes;
            sw_waves = sweep_waves;
            sw_size = size }
        in
        let resp = require_ok (Serve.Client.rpc conn (P.Sweep s)) in
        let grid = J.member "grid" resp in
        match out with
        | Some path ->
          J.write_file path grid;
          Printf.printf "wrote %s\n" path
        | None -> print_endline (J.to_string grid))
  | "simulate" ->
    let program = program_of kernel size source flags.Run_flags.seed in
    let run = run_of program in
    if cluster <> None then begin
      if preempt_after <> None then
        failwith "--preempt-after needs a held connection; drop --cluster";
      let t = cluster_of (Option.get cluster) in
      let resp, served_by =
        Serve.Cluster.submit t
          ~key:(Serve.Cluster.routing_key program)
          (P.Simulate run)
      in
      Printf.printf "served by %s%s\n" served_by
        (if Serve.Cluster.failovers t > 0 then " (after failover)" else "");
      finish_simulate program resp values_out metrics_out
        checkpoint_out
    end
    else if retries > 0 then begin
      if preempt_after <> None then
        failwith "--preempt-after needs a held connection; drop --retries";
      let resp, attempts =
        Serve.Client.resilient_rpc
          ?deadline:timeout ~retry ~addr (P.Simulate run)
      in
      if attempts > 1 then
        Printf.printf "delivered after %d attempts\n" attempts;
      finish_simulate program resp values_out metrics_out
        checkpoint_out
    end
    else
      with_conn (fun conn ->
          let id = Serve.Client.send conn (P.Simulate run) in
          (match preempt_after with
          | None -> ()
          | Some secs ->
            Unix.sleepf secs;
            ignore (Serve.Client.send conn (P.Cancel id)));
          let resp = Serve.Client.await conn id in
          finish_simulate program resp values_out metrics_out
            checkpoint_out)
  | "migrate" ->
    (* submit at --socket, let it run --after seconds, move it to --to *)
    let target =
      match to_addr with
      | Some a -> a
      | None -> failwith "migrate needs --to TARGET"
    in
    if idem = None then failwith "migrate needs --idem KEY";
    let program = program_of kernel size source flags.Run_flags.seed in
    let run = run_of program in
    with_conn (fun conn ->
        ignore (Serve.Client.send conn (P.Simulate run));
        Unix.sleepf after;
        let resp, how =
          Serve.Cluster.migrate ?deadline:timeout ~retry ~source:addr ~target
            run
        in
        Printf.printf "migration: %s\n" how;
        finish_simulate program resp values_out metrics_out
          checkpoint_out)
  | v -> failwith (Printf.sprintf "unknown verb %S" v)

let main_safe verb socket tcp cluster to_addr after timeout retries idem
    kernel size source flags max_time pes sweep_waves kernels out
    checkpoint_out preempt_after =
  try
    main verb socket tcp cluster to_addr after timeout retries idem kernel
      size source flags max_time pes sweep_waves kernels out checkpoint_out
      preempt_after;
    `Ok ()
  with
  | Rejected (kind, msg) ->
    (* a structured rejection is not a transport failure: exit with the
       kind's documented code so scripts can branch on the taxonomy *)
    Printf.eprintf "dfclient: rejected (%s): %s\n%!"
      (P.error_kind_to_string kind) msg;
    exit (rejection_exit kind)
  | Failure msg | Invalid_argument msg -> `Error (false, msg)
  | End_of_file -> `Error (false, "server closed the connection")
  | Serve.Client.Timeout -> `Error (false, "request deadline expired")
  | Unix.Unix_error (e, fn, arg) ->
    `Error (false, Printf.sprintf "%s %s: %s" fn arg (Unix.error_message e))

open Cmdliner

let cmd =
  let verb =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"VERB"
             ~doc:"compile | simulate | migrate | sweep | stats | members \
                   | shutdown")
  in
  let socket =
    Arg.(value & opt string
           (Filename.concat (Filename.get_temp_dir_name ())
              (Printf.sprintf "dfserve-%d.sock" (Unix.getuid ())))
         & info [ "socket"; "s" ] ~docv:"PATH" ~doc:"server socket path")
  in
  let tcp =
    Arg.(value & opt (some string) None
         & info [ "tcp" ] ~docv:"HOST:PORT"
             ~doc:"connect over TCP instead of the Unix socket")
  in
  let cluster =
    Arg.(value & opt (some string) None
         & info [ "cluster" ] ~docv:"A,B,C|@FILE"
             ~doc:"federated member addresses (socket paths or \
                   tcp:HOST:PORT), comma-separated or \\@FILE with one \
                   per line: simulate routes by rendezvous hash on the \
                   program and fails over past dead members; stats probes \
                   every member")
  in
  let to_addr =
    Arg.(value & opt (some string) None
         & info [ "to" ] ~docv:"ADDR"
             ~doc:"migrate: target member (socket path or tcp:HOST:PORT)")
  in
  let after =
    Arg.(value & opt float 0.3
         & info [ "after" ] ~docv:"SECS"
             ~doc:"migrate: wall-clock seconds to let the job run at the \
                   source before moving it")
  in
  let timeout =
    Arg.(value & opt (some float) None
         & info [ "timeout" ] ~docv:"SECONDS"
             ~doc:"fail if a response takes longer than this")
  in
  let retries =
    Arg.(value & opt int 0
         & info [ "retries" ] ~docv:"N"
             ~doc:"simulate: reconnect-and-reissue up to N attempts with \
                   exponential backoff; pair with --idem so retries are \
                   answered exactly once, even across a server restart")
  in
  let idem =
    Arg.(value & opt (some string) None
         & info [ "idem" ] ~docv:"KEY"
             ~doc:"simulate: idempotency key — the server records the \
                   response under it and answers retries from the record")
  in
  let kernel =
    Arg.(value & opt (some string) None
         & info [ "kernel" ] ~docv:"NAME" ~doc:"built-in kernel subject")
  in
  let size =
    Arg.(value & opt int 12
         & info [ "size" ] ~docv:"N" ~doc:"kernel size parameter")
  in
  let source =
    Arg.(value & opt (some string) None
         & info [ "source" ] ~docv:"FILE" ~doc:"Val source file to run")
  in
  let max_time =
    Arg.(value & opt (some int) None
         & info [ "max-time" ] ~docv:"T" ~doc:"simulation time budget")
  in
  let pes =
    Arg.(value & opt (list int) [ 1; 2; 4; 8; 16 ]
         & info [ "pes" ] ~docv:"N,N,..."
             ~doc:"sweep: PE counts (sweep.exe's --pes)")
  in
  let sweep_waves =
    Arg.(value & opt (list int) [ 4 ]
         & info [ "sweep-waves" ] ~docv:"W,W,..."
             ~doc:"sweep: wave counts (sweep.exe's --waves)")
  in
  let kernels =
    Arg.(value & opt (some (list string)) None
         & info [ "kernels" ] ~docv:"NAME,NAME,..."
             ~doc:"sweep: kernels to sweep (default: the whole library)")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"sweep: write the grid JSON here (byte-identical to \
                   sweep.exe --out for the same grid)")
  in
  let checkpoint_out =
    Arg.(value & opt (some string) None
         & info [ "checkpoint-out" ] ~docv:"OUT"
             ~doc:"with --preempt-after: save the returned checkpoint in \
                   dfsim --restore format")
  in
  let preempt_after =
    Arg.(value & opt (some float) None
         & info [ "preempt-after" ] ~docv:"SECS"
             ~doc:"cancel the simulate request after this many wall-clock \
                   seconds; a machine run is preempted at its next slice \
                   boundary and returns a restorable checkpoint")
  in
  let term =
    Term.(ret (const main_safe $ verb $ socket $ tcp $ cluster $ to_addr
               $ after $ timeout $ retries $ idem $ kernel $ size $ source
               $ Run_flags.term $ max_time $ pes $ sweep_waves $ kernels
               $ out $ checkpoint_out $ preempt_after))
  in
  Cmd.v
    (Cmd.info "dfclient" ~version:"1.0"
       ~doc:"command-line client for the dfserve compile-and-simulate \
             service")
    term

let () = exit (Cmdliner.Cmd.eval cmd)
