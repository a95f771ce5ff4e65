(* dfserve: the persistent compile-and-simulate service.

   Foreground server over a Unix-domain socket and optionally TCP
   (NDJSON requests, see docs/SERVICE.md), with read/idle/write
   deadlines, a request-line cap and an optional write-ahead job
   journal that makes idempotent requests exactly-once across crashes.
   faultcheck's service presets soak it as a live process. *)

let default_socket () =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "dfserve-%d.sock" (Unix.getuid ()))

let main socket tcp journal journal_retain cluster self replicas fsync
    diskfault max_line idle_timeout write_timeout drain_timeout workers
    max_pending cache slice log_file _verbose =
  (* a peer that vanishes mid-write must be an EPIPE, not a kill *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let tcp_ok =
    match tcp with
    | None -> Ok None
    | Some s -> Result.map Option.some (Runspec.hostport_of_string s)
  in
  let diskfault_ok =
    match diskfault with
    | None -> Ok None
    | Some s -> Result.map Option.some (Serve.Diskfault.of_string s)
  in
  match (tcp_ok, diskfault_ok) with
  | Error e, _ -> `Error (true, "--tcp " ^ e)
  | _, Error e -> `Error (true, "--diskfault " ^ e)
  | Ok tcp, Ok diskfault ->
    let config =
      { (Serve.Server.default_config ~socket_path:socket) with
        Serve.Server.workers =
          Option.value workers ~default:(Exec.Pool.default_jobs ());
        tcp;
        max_pending;
        cache_capacity = cache;
        slice;
        max_line;
        idle_timeout =
          (if idle_timeout <= 0.0 then None else Some idle_timeout);
        write_timeout;
        drain_timeout;
        journal_path = journal;
        journal_retain;
        replicas;
        cluster;
        (* a cluster member defaults its own address to the listen
           socket — the common case when members share a host *)
        self_addr =
          (match (self, cluster) with
          | (Some _ as s), _ -> s
          | None, Some _ -> Some socket
          | None, None -> None);
        fsync;
        diskfault;
        log =
          Some
            (match log_file with Some path -> open_out path | None -> stderr)
      }
    in
    let server = Serve.Server.create config in
    (* the port bound, which differs from the one asked for under
       --tcp HOST:0 *)
    Printf.printf "dfserve: listening on %s%s\n%!" socket
      (match (tcp, Serve.Server.tcp_port server) with
      | Some (h, _), Some p -> Printf.sprintf " and tcp %s:%d" h p
      | _ -> "");
    (* membership reload: SIGHUP re-reads the @FILE member list at
       the loop's next iteration *)
    Sys.set_signal Sys.sighup
      (Sys.Signal_handle (fun _ -> Serve.Server.request_reload server));
    Serve.Server.serve server;
    `Ok ()

let main_safe socket tcp journal journal_retain cluster self replicas fsync
    diskfault max_line idle_timeout write_timeout drain_timeout workers
    max_pending cache slice log_file verbose =
  try
    main socket tcp journal journal_retain cluster self replicas fsync
      diskfault max_line idle_timeout write_timeout drain_timeout workers
      max_pending cache slice log_file verbose
  with
  | Failure msg | Invalid_argument msg -> `Error (false, msg)
  | Unix.Unix_error (e, fn, arg) ->
    `Error (false, Printf.sprintf "%s %s: %s" fn arg (Unix.error_message e))

open Cmdliner

let cmd =
  let socket =
    Arg.(value & opt string (default_socket ())
         & info [ "socket"; "s" ] ~docv:"PATH"
             ~doc:"Unix-domain socket path to listen on")
  in
  let tcp =
    Arg.(value & opt (some string) None
         & info [ "tcp" ] ~docv:"HOST:PORT"
             ~doc:"also listen on TCP (port 0 picks an ephemeral port; \
                   an empty host means 127.0.0.1)")
  in
  let journal =
    Arg.(value & opt (some string) None
         & info [ "journal" ] ~docv:"FILE"
             ~doc:"write-ahead job journal: admitted idempotent requests \
                   and their responses are recorded here, and replayed on \
                   restart so retried requests are answered exactly once \
                   even across a crash")
  in
  let journal_retain =
    Arg.(value & opt (some int) None
         & info [ "journal-retain" ] ~docv:"N"
             ~doc:"compact the journal on startup, keeping the newest N \
                   completed responses (plus every pending admission); \
                   without it the full history is kept")
  in
  let cluster =
    Arg.(value & opt (some string) None
         & info [ "cluster" ] ~docv:"A,B,C|@FILE"
             ~doc:"replicated cluster membership (addresses \
                   comma-separated or \\@FILE with one per line; must \
                   include this member's own address).  Journal records \
                   for idempotent jobs stream to the rendezvous-ranked \
                   peers so they survive this member's disk; the \\@FILE \
                   form is re-read on SIGHUP.  Requires --journal.")
  in
  let self =
    Arg.(value & opt (some string) None
         & info [ "self" ] ~docv:"ADDR"
             ~doc:"this member's address as listed in --cluster \
                   (default: the --socket path)")
  in
  let replicas =
    Arg.(value & opt int 2
         & info [ "replicas" ] ~docv:"R"
             ~doc:"total journal copies per record, counting the local \
                   append: each record streams to R-1 peers")
  in
  let fsync =
    Arg.(value
         & vflag None
             [ ( Some true,
                 info [ "fsync" ]
                   ~doc:"fsync Admit/Done journal appends so acknowledged \
                         records survive power loss (default when \
                         --cluster is given)" );
               ( Some false,
                 info [ "no-fsync" ]
                   ~doc:"never fsync journal appends (OS buffers only)" ) ])
  in
  let diskfault =
    Arg.(value & opt (some string) None
         & info [ "diskfault" ] ~docv:"SPEC"
             ~doc:"seeded disk-fault injection on journal appends, e.g. \
                   'seed=7 torn=0.03 enospc=0.03 rot=0.03 slow=0.05 \
                   slow_s=0.002' (testing only)")
  in
  let max_line =
    Arg.(value & opt int (1 lsl 20)
         & info [ "max-line" ] ~docv:"BYTES"
             ~doc:"request-line cap: longer lines draw a structured \
                   malformed error and a close")
  in
  let idle_timeout =
    Arg.(value & opt float 60.0
         & info [ "idle-timeout" ] ~docv:"SECONDS"
             ~doc:"close connections idle this long with no work in \
                   flight (0 disables)")
  in
  let write_timeout =
    Arg.(value & opt float 10.0
         & info [ "write-timeout" ] ~docv:"SECONDS"
             ~doc:"close connections whose pending responses make no \
                   progress this long")
  in
  let drain_timeout =
    Arg.(value & opt float 30.0
         & info [ "drain-timeout" ] ~docv:"SECONDS"
             ~doc:"shutdown drains admitted jobs for at most this long \
                   before dumping the queue")
  in
  let workers =
    Arg.(value & opt (some int) None
         & info [ "workers"; "j" ] ~docv:"N"
             ~doc:"simulation worker domains (default: \\$(b,EXEC_JOBS) or \
                   the available cores)")
  in
  let max_pending =
    Arg.(value & opt int 64
         & info [ "max-pending" ] ~docv:"N"
             ~doc:"admission bound: jobs waiting to dispatch before new \
                   simulate requests are rejected as overloaded")
  in
  let cache =
    Arg.(value & opt int 32
         & info [ "cache" ] ~docv:"N"
             ~doc:"compiled-program cache capacity (LRU eviction)")
  in
  let slice =
    Arg.(value & opt int 5000
         & info [ "slice" ] ~docv:"T"
             ~doc:"machine-engine preemption slice in simulation-time \
                   units: cancel and shutdown take effect at the next \
                   slice boundary, returning a restorable checkpoint")
  in
  let log_file =
    Arg.(value & opt (some string) None
         & info [ "log" ] ~docv:"FILE" ~doc:"append lifecycle log lines here")
  in
  let verbose =
    Arg.(value & flag
         & info [ "verbose"; "v" ]
             ~doc:"log to stderr (what the server does without --log)")
  in
  let term =
    Term.(ret (const main_safe $ socket $ tcp $ journal $ journal_retain
               $ cluster $ self $ replicas $ fsync $ diskfault $ max_line
               $ idle_timeout $ write_timeout $ drain_timeout $ workers
               $ max_pending $ cache $ slice $ log_file $ verbose))
  in
  Cmd.v
    (Cmd.info "dfserve" ~version:"1.0"
       ~doc:"persistent compile-and-simulate service with a \
             compiled-program cache, fair queueing, transport deadlines \
             and a crash-safe job journal")
    term

let () = exit (Cmdliner.Cmd.eval cmd)
