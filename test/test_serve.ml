(* dfserve: protocol wire format, the LRU compiled-program cache, and a
   live server driven over its real Unix-domain socket — caching,
   fairness/admission, cancellation with checkpoint restore, bit-identity
   with standalone Exec.Job runs, and clean shutdown. *)

module J = Obs.Json
module P = Serve.Protocol
module FP = Fault.Fault_plan
module ME = Machine.Machine_engine

(* socket tests: a peer that vanishes mid-write must be an EPIPE, not a
   process kill *)
let () = Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* --- protocol ------------------------------------------------------- *)

let test_protocol_request_roundtrip () =
  let roundtrip req =
    let doc = P.request_to_json ~id:7 req in
    (* through the actual wire text, not just the tree *)
    match P.request_of_json (J.of_string (J.to_string doc)) with
    | Error e -> Alcotest.failf "undecodable request: %s" e
    | Ok (id, back) ->
      check_int "id" 7 id;
      check_string "request round-trips"
        (J.to_string (P.request_to_json ~id:7 req))
        (J.to_string (P.request_to_json ~id:7 back))
  in
  roundtrip (P.Compile (P.Kernel { name = "hydro"; size = 12 }));
  roundtrip
    (P.Compile
       (P.Source
          { source = "param n = 4;\ninput X : array[real] [0, n-1];\n";
            scalars = [ ("q", Dfg.Value.Real 0.25) ];
            input_seed = 9 }));
  roundtrip (P.Cancel 3);
  roundtrip (P.Migrate "job-9");
  roundtrip P.Stats;
  roundtrip P.Shutdown;
  roundtrip
    (P.Replicate
       { origin = "/tmp/member-a.sock";
         entry = J.Obj [ ("kind", J.String "admit"); ("idem", J.String "j1") ]
       });
  roundtrip (P.Recover { origin = "/tmp/member-a.sock" });
  roundtrip P.Members;
  let base = P.default_run (P.Kernel { name = "tridiag"; size = 8 }) in
  roundtrip (P.Simulate base);
  roundtrip
    (P.Simulate
       { base with
         P.waves = 5;
         engine = `Machine;
         n_pe = Some 3;
         stored = true;
         fault = Some "seed=4 delay=0.25";
         fault_seed = Some 11;
         recovery = Some (Recover.to_string Run_config.default_recovery);
         integrity = true;
         watchdog = P.At 600;
         max_time = Some 123_456;
         sanitize = true });
  roundtrip (P.Simulate { base with P.watchdog = P.Auto });
  (* a migrated job travels as a Simulate with a checkpoint to restore *)
  roundtrip
    (P.Simulate
       { base with
         P.idem = Some "moved-1";
         restore =
           Some (J.Obj [ ("time", J.Int 777); ("cells", J.List []) ]) })

let test_protocol_values () =
  let roundtrip v =
    match P.value_of_json (P.value_to_json v) with
    | Error e -> Alcotest.failf "value failed: %s" e
    | Ok back ->
      check "value round-trips"
        true
        (match (v, back) with
        (* a nan stays a nan; its payload bits are not part of the
           contract (both sides print "nan" on the wire) *)
        | Dfg.Value.Real a, Dfg.Value.Real b when Float.is_nan a ->
          Float.is_nan b
        | Dfg.Value.Real a, Dfg.Value.Real b ->
          Int64.bits_of_float a = Int64.bits_of_float b
        | a, b -> a = b)
  in
  List.iter roundtrip
    [ Dfg.Value.Int 42; Dfg.Value.Int min_int; Dfg.Value.Bool true;
      Dfg.Value.Bool false; Dfg.Value.Real 0.1; Dfg.Value.Real (-0.0);
      Dfg.Value.Real Float.nan; Dfg.Value.Real Float.infinity;
      Dfg.Value.Real 4.9e-324 ];
  let outputs =
    [ ("X", [ (3, Dfg.Value.Real 1.5); (5, Dfg.Value.Real Float.nan) ]);
      ("flag", [ (1, Dfg.Value.Bool false) ]); ("empty", []) ]
  in
  match P.outputs_of_json (P.outputs_to_json outputs) with
  | Error e -> Alcotest.failf "outputs failed: %s" e
  | Ok back ->
    check_string "outputs round-trip (wire text)"
      (J.to_string (P.outputs_to_json outputs))
      (J.to_string (P.outputs_to_json back))

let test_protocol_errors () =
  let resp = P.error ~id:4 P.Overloaded "queue full" in
  check "not ok" false (P.response_ok resp);
  check_int "id" 4 (Option.get (P.response_id resp));
  (match P.response_error resp with
  | Some (Some P.Overloaded, msg) -> check_string "message" "queue full" msg
  | _ -> Alcotest.fail "expected structured overloaded error");
  List.iter
    (fun k ->
      check "error kind round-trips" true
        (P.error_kind_of_string (P.error_kind_to_string k) = Some k))
    [ P.Bad_request; P.Compile_error; P.Unknown_verb; P.Overloaded;
      P.Cancelled; P.Run_error; P.Shutting_down; P.Replica_error ]

(* --- LRU ------------------------------------------------------------- *)

let test_lru () =
  let c = Serve.Lru.create ~capacity:2 in
  Serve.Lru.add c "a" 1;
  Serve.Lru.add c "b" 2;
  check "a present" true (Serve.Lru.find c "a" = Some 1);
  (* b is now the least recently used; adding c must evict it *)
  Serve.Lru.add c "c" 3;
  check "b evicted" false (Serve.Lru.mem c "b");
  check "a survived (recently used)" true (Serve.Lru.mem c "a");
  check "c present" true (Serve.Lru.mem c "c");
  check_int "length" 2 (Serve.Lru.length c);
  check_int "capacity" 2 (Serve.Lru.capacity c);
  check_int "evictions" 1 (Serve.Lru.evictions c);
  check_int "hits" 1 (Serve.Lru.hits c);
  check "miss counted" true (Serve.Lru.find c "zzz" = None);
  check_int "misses" 1 (Serve.Lru.misses c);
  check "overwrite keeps length" true
    (Serve.Lru.add c "c" 30;
     Serve.Lru.length c = 2 && Serve.Lru.find c "c" = Some 30)

(* --- live server helpers --------------------------------------------- *)

(* [f] gets the socket path and the server handle (for tcp_port) *)
let with_server_t ?(workers = 2) ?(max_pending = 64) ?(slice = 5000) ?tcp
    ?max_line ?idle_timeout ?drain_timeout ?journal ?journal_retain ?cache
    ?name f =
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (match name with
      | Some n -> Printf.sprintf "dfserve-test-%d-%s.sock" (Unix.getpid ()) n
      | None ->
        Printf.sprintf "dfserve-test-%d-%d.sock" (Unix.getpid ())
          (Hashtbl.hash f))
  in
  let base = Serve.Server.default_config ~socket_path:socket in
  let config =
    { base with
      Serve.Server.workers;
      max_pending;
      slice;
      tcp;
      max_line = Option.value max_line ~default:base.Serve.Server.max_line;
      idle_timeout =
        (match idle_timeout with
        | Some _ as i -> i
        | None -> base.Serve.Server.idle_timeout);
      cache_capacity =
        Option.value cache ~default:base.Serve.Server.cache_capacity;
      drain_timeout =
        Option.value drain_timeout ~default:base.Serve.Server.drain_timeout;
      journal_path = journal;
      journal_retain }
  in
  let server = Serve.Server.create config in
  let domain = Domain.spawn (fun () -> Serve.Server.serve server) in
  let finish () =
    (* the socket is bound before [serve] starts, so a refused connect
       means a test already shut the server down *)
    (try
       let conn = Serve.Client.connect ~retries:0 socket in
       ignore (Serve.Client.rpc conn P.Shutdown);
       Serve.Client.close conn
     with _ -> ());
    Domain.join domain
  in
  Fun.protect ~finally:finish (fun () -> f socket server);
  check "socket removed after shutdown" false (Sys.file_exists socket)

let with_server ?workers ?max_pending ?slice ?drain_timeout f =
  with_server_t ?workers ?max_pending ?slice ?drain_timeout (fun socket _ ->
      f socket)

(* a raw connection for speaking garbage the typed client refuses to *)
let raw_connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  fd

let raw_send fd s =
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring fd s off (String.length s - off))
  in
  go 0

(* one response line, or fail after [timeout] seconds; pass the same
   [buf] across calls when replies may arrive batched (the overshoot
   of one read holds the next line) *)
let raw_read_line ?(timeout = 5.0) ?buf fd =
  let buf = match buf with Some b -> b | None -> Buffer.create 256 in
  let chunk = Bytes.create 1024 in
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    let data = Buffer.contents buf in
    match String.index_opt data '\n' with
    | Some nl ->
      Buffer.clear buf;
      Buffer.add_substring buf data (nl + 1) (String.length data - nl - 1);
      String.sub data 0 nl
    | None ->
      let remaining = deadline -. Unix.gettimeofday () in
      if remaining <= 0.0 then Alcotest.fail "no response within timeout";
      (match Unix.select [ fd ] [] [] remaining with
      | [], _, _ -> Alcotest.fail "no response within timeout"
      | _ -> ());
      let n = Unix.read fd chunk 0 1024 in
      if n = 0 then raise End_of_file;
      Buffer.add_subbytes buf chunk 0 n;
      go ()
  in
  go ()

let stat resp f = Option.value ~default:(-1) (J.get_int (J.member f resp))

(* the standalone job a served response must be bit-identical to *)
let standalone_job (r : P.run) =
  match
    Result.bind
      (Serve.Server.compile_program r.P.program)
      (Serve.Server.job_of_run r)
  with
  | Ok job -> job
  | Error e -> Alcotest.failf "standalone setup: %s" e

let standalone r = Exec.Job.run (standalone_job r)

(* a standalone machine job's configuration (without the per-run
   sanitizer), arch, graph and inputs, for tests that drive the
   resumable engine by hand *)
let machine_parts (r : P.run) =
  let job = standalone_job r in
  let graph = Exec.Job.graph job in
  match job.Exec.Job.engine with
  | Exec.Job.Machine arch ->
    (job.Exec.Job.config, arch, graph, job.Exec.Job.inputs)
  | Exec.Job.Sim -> Alcotest.fail "not a machine run"

let check_served_identical ~label resp expected =
  check (label ^ ": ok response") true (P.response_ok resp);
  let want = J.Obj (P.outcome_fields ~cache_hit:false ~key:0 expected) in
  List.iter
    (fun f ->
      check_string
        (Printf.sprintf "%s: %s identical" label f)
        (J.to_string (J.member f want))
        (J.to_string (J.member f resp)))
    [ "outputs"; "digest"; "end_time"; "quiescent"; "stall"; "violations";
      "metrics" ]

(* --- live server tests ----------------------------------------------- *)

let test_cache_contract () =
  with_server (fun socket ->
      let conn = Serve.Client.connect socket in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close conn)
        (fun () ->
          let run =
            { (P.default_run (P.Kernel { name = "hydro"; size = 8 })) with
              P.waves = 2 }
          in
          let n = 5 in
          let resps =
            List.init n (fun _ -> Serve.Client.rpc conn (P.Simulate run))
          in
          let hits =
            List.length
              (List.filter
                 (fun r ->
                   J.get_bool (J.member "cache_hit" r) = Some true)
                 resps)
          in
          check_int "N requests -> N-1 cache hits" (n - 1) hits;
          let expected = standalone run in
          List.iteri
            (fun i r ->
              check_served_identical
                ~label:(Printf.sprintf "request %d" i) r expected)
            resps;
          (* a different size is a different program: a miss *)
          let other =
            { run with
              P.program = P.Kernel { name = "hydro"; size = 6 } }
          in
          let r = Serve.Client.rpc conn (P.Simulate other) in
          check "different size misses" true
            (J.get_bool (J.member "cache_hit" r) = Some false);
          let stats = Serve.Client.rpc conn P.Stats in
          check_int "stats cache hits" (n - 1) (stat stats "cache_hits");
          check_int "stats cache misses" 2 (stat stats "cache_misses")))

let test_served_faulted_machine () =
  with_server (fun socket ->
      let conn = Serve.Client.connect socket in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close conn)
        (fun () ->
          let spec =
            { FP.none with
              FP.seed = 42;
              delay_prob = 0.25;
              drop_prob = 0.03;
              corrupt_prob = 0.03 }
          in
          let run =
            { (P.default_run (P.Kernel { name = "tridiag"; size = 8 })) with
              P.waves = 2;
              engine = `Machine;
              fault = Some (FP.to_string spec);
              recovery = Some (Recover.to_string Run_config.default_recovery);
              integrity = true;
              watchdog = P.Auto;
              sanitize = true }
          in
          let resp = Serve.Client.rpc conn (P.Simulate run) in
          check_served_identical ~label:"faulted machine" resp
            (standalone run);
          (* fault_seed overrides the spec's seed: different run *)
          let reseeded = { run with P.fault_seed = Some 4242 } in
          let resp2 = Serve.Client.rpc conn (P.Simulate reseeded) in
          check_served_identical ~label:"reseeded" resp2
            (standalone reseeded)))

let test_overload_rejection () =
  (* one worker, a queue of one: the third concurrent job must be
     rejected as overloaded, not silently queued *)
  with_server ~workers:1 ~max_pending:1 (fun socket ->
      let conn = Serve.Client.connect socket in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close conn)
        (fun () ->
          let big =
            { (P.default_run (P.Kernel { name = "hydro"; size = 32 })) with
              P.waves = 60;
              engine = `Machine }
          in
          let ids = List.init 3 (fun _ -> Serve.Client.send conn (P.Simulate big)) in
          let resps = List.map (Serve.Client.await conn) ids in
          let rejected =
            List.filter
              (fun r ->
                match P.response_error r with
                | Some (Some P.Overloaded, _) -> true
                | _ -> false)
              resps
          in
          check_int "one structured overloaded rejection" 1
            (List.length rejected);
          check_int "the other two complete" 2
            (List.length (List.filter P.response_ok resps));
          let stats = Serve.Client.rpc conn P.Stats in
          check_int "stats rejections" 1 (stat stats "rejections")))

(* a machine job still running when the test acts on it: one to two
   seconds of hydro at size 32 on a 2-vCPU host, preemptible at every
   slice boundary.  The tests act on it after sleeping 0.2-0.3 s, so an
   engine speed-up has to grow [waves] to keep that margin. *)
let long_run ?(waves = 7500) () =
  { (P.default_run (P.Kernel { name = "hydro"; size = 32 })) with
    P.waves;
    engine = `Machine;
    max_time = Some 100_000_000 }

let test_cancel_and_preempt () =
  with_server ~workers:1 ~slice:2000 (fun socket ->
      let conn = Serve.Client.connect socket in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close conn)
        (fun () ->
          let long = long_run () in
          let quick =
            { (P.default_run (P.Kernel { name = "hydro"; size = 8 })) with
              P.waves = 1 }
          in
          let running = Serve.Client.send conn (P.Simulate long) in
          let queued = Serve.Client.send conn (P.Simulate quick) in
          (* give the long job time to dispatch and start advancing *)
          Unix.sleepf 0.2;
          (* cancel the queued job: answered immediately, never runs *)
          let c1 = Serve.Client.rpc conn (P.Cancel queued) in
          check "cancel of queued acknowledged" true (P.response_ok c1);
          check_string "queued job cancelled"
            "cancelled"
            (Option.value ~default:"?"
               (J.get_string (J.member "state" c1)));
          (match P.response_error (Serve.Client.await conn queued) with
          | Some (Some P.Cancelled, _) -> ()
          | _ -> Alcotest.fail "queued job should answer cancelled");
          (* preempt the running machine job at its next slice *)
          let c2 = Serve.Client.rpc conn (P.Cancel running) in
          check_string "running machine job preempting"
            "preempting"
            (Option.value ~default:"?"
               (J.get_string (J.member "state" c2)));
          let resp = Serve.Client.await conn running in
          (match P.response_error resp with
          | Some (Some P.Cancelled, _) -> ()
          | _ -> Alcotest.fail "preempted job should answer cancelled");
          (* the checkpoint restores and resumes to the exact same
             result an uninterrupted run produces *)
          let cfg, arch, graph, inputs = machine_parts long in
          match
            Recover.Checkpoint.of_json ~arena:(Arena.build graph) (J.member "checkpoint" resp)
          with
          | Error e -> Alcotest.failf "checkpoint decode: %s" e
          | Ok snapshot ->
            check "preempted mid-run" true (snapshot.ME.sn_time > 0);
            let m = ME.create_cfg cfg ~arch graph ~inputs in
            ME.restore m snapshot;
            ME.advance m ~until:max_int;
            let resumed = ME.result m in
            let oneshot = ME.run_cfg cfg ~arch graph ~inputs in
            check_int "resumed end time = uninterrupted"
              oneshot.ME.end_time resumed.ME.end_time;
            check_int "resumed digest = uninterrupted"
              (Integrity.digest_outputs oneshot.ME.outputs)
              (Integrity.digest_outputs resumed.ME.outputs)))

let test_compile_verb_and_errors () =
  with_server (fun socket ->
      let conn = Serve.Client.connect socket in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close conn)
        (fun () ->
          let prog = P.Kernel { name = "prefix_sum"; size = 8 } in
          let r1 = Serve.Client.rpc conn (P.Compile prog) in
          check "compile ok" true (P.response_ok r1);
          check "first compile misses" true
            (J.get_bool (J.member "cache_hit" r1) = Some false);
          check "reports cells" true (stat r1 "cells" > 0);
          let r2 = Serve.Client.rpc conn (P.Compile prog) in
          check "second compile hits" true
            (J.get_bool (J.member "cache_hit" r2) = Some true);
          check_int "same key" (stat r1 "key") (stat r2 "key");
          (* structured errors *)
          (match
             P.response_error
               (Serve.Client.rpc conn
                  (P.Compile (P.Kernel { name = "no-such"; size = 1 })))
           with
          | Some (Some P.Compile_error, _) -> ()
          | _ -> Alcotest.fail "unknown kernel should be compile_error");
          (match
             P.response_error
               (Serve.Client.rpc conn
                  (P.Simulate
                     { (P.default_run prog) with P.fault = Some "garbage" }))
           with
          | Some (Some P.Bad_request, _) -> ()
          | _ -> Alcotest.fail "bad fault spec should be bad_request");
          match P.response_error (Serve.Client.rpc conn (P.Cancel 999)) with
          | None ->
            check_string "cancel of unknown id"
              "not_found"
              (Option.value ~default:"?"
                 (J.get_string
                    (J.member "state" (Serve.Client.rpc conn (P.Cancel 999)))))
          | Some _ -> Alcotest.fail "cancel of unknown id is not an error"))

(* --- hostile transport ----------------------------------------------- *)

let tiny_run =
  { (P.default_run (P.Kernel { name = "hydro"; size = 8 })) with P.waves = 1 }

let test_tcp_transport () =
  with_server_t ~tcp:("127.0.0.1", 0) (fun _socket server ->
      let port =
        match Serve.Server.tcp_port server with
        | Some p -> p
        | None -> Alcotest.fail "tcp_port unset"
      in
      let addr = Printf.sprintf "tcp:127.0.0.1:%d" port in
      let conn = Serve.Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close conn)
        (fun () ->
          let resp = Serve.Client.rpc conn (P.Simulate tiny_run) in
          check_served_identical ~label:"tcp simulate" resp
            (standalone tiny_run)))

let test_hostile_lines () =
  with_server_t ~max_line:1024 (fun socket _ ->
      (* a garbage line draws a structured malformed error and the
         connection keeps working *)
      let fd = raw_connect socket in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          raw_send fd "this is not json\n";
          let r = J.of_string (raw_read_line fd) in
          (match P.response_error r with
          | Some (Some P.Malformed, _) -> ()
          | _ -> Alcotest.failf "expected malformed, got %s" (J.to_string r));
          check_int "malformed reply addresses no request" (-1)
            (Option.value ~default:0 (P.response_id r));
          raw_send fd "{\"id\":5,\"verb\":\"stats\"}\n";
          let r2 = J.of_string (raw_read_line fd) in
          check "same connection still serves" true (P.response_ok r2);
          check_int "and addresses the request" 5
            (Option.value ~default:(-1) (P.response_id r2)));
      (* a line over the cap: structured malformed, then a close — the
         slowloris answer *)
      let fd = raw_connect socket in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          raw_send fd (String.make 2000 'x');
          let r = J.of_string (raw_read_line fd) in
          (match P.response_error r with
          | Some (Some P.Malformed, _) -> ()
          | _ ->
            Alcotest.failf "expected malformed on oversize, got %s"
              (J.to_string r));
          match raw_read_line fd with
          | exception End_of_file -> ()
          | l -> Alcotest.failf "connection should be closed, read %s" l);
      (* a mid-frame disconnect leaves the server healthy *)
      let fd = raw_connect socket in
      raw_send fd "{\"id\":9,\"verb\":\"sim";
      Unix.close fd;
      let conn = Serve.Client.connect socket in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close conn)
        (fun () ->
          check "server healthy after mid-frame disconnect" true
            (P.response_ok (Serve.Client.rpc conn P.Stats));
          let stats = Serve.Client.rpc conn P.Stats in
          check "malformed lines counted" true (stat stats "malformed" >= 2)))

(* A request line past the server's [max_line] draws a structured
   [malformed] answer and a close before the server has read it all.
   When the rest of the client's write fails, the client reads the
   answer the server already sent; when the line fit the socket buffers
   (over TCP, mostly) the write completes and the answer arrives as an
   ordinary unaddressed one.  Either way it is the answer, not a frame
   mangled on the wire to retry until the attempts run out. *)
let test_oversize_request_answered ~tcp () =
  with_server_t
    ?tcp:(if tcp then Some ("127.0.0.1", 0) else None)
    ~max_line:4096
    (fun socket server ->
      let addr =
        match (tcp, Serve.Server.tcp_port server) with
        | false, _ -> socket
        | true, Some p -> Printf.sprintf "tcp:127.0.0.1:%d" p
        | true, None -> Alcotest.fail "tcp_port unset"
      in
      List.iter
        (fun bytes ->
          let run =
            P.default_run
              (P.Source
                 { source = String.make bytes ' '; scalars = [];
                   input_seed = 0 })
          in
          let resp, attempts =
            Serve.Client.resilient_rpc ~addr (P.Simulate run)
          in
          (* a TCP reset can discard the answer, and that attempt is
             retried; a Unix socket keeps it *)
          if tcp then
            check
              (Printf.sprintf "%d bytes: answered with attempts left" bytes)
              true
              (attempts < Serve.Client.default_retry.Serve.Client.attempts)
          else
            check_int
              (Printf.sprintf "%d bytes: answered on the first attempt" bytes)
              1 attempts;
          match P.response_error resp with
          | Some (Some P.Malformed, msg) ->
            check_string "the answer names the limit"
              "request line exceeds 4096 bytes" msg
          | _ -> Alcotest.failf "expected malformed, got %s" (J.to_string resp))
        (List.init 18 (fun i -> 100_000 + (i * 29_400))))

let test_idle_deadline () =
  with_server_t ~idle_timeout:0.3 (fun socket _ ->
      let fd = raw_connect socket in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          (* say nothing: the server owes us a deadline error and a close *)
          let r = J.of_string (raw_read_line ~timeout:5.0 fd) in
          (match P.response_error r with
          | Some (Some P.Deadline, _) -> ()
          | _ ->
            Alcotest.failf "expected deadline close, got %s" (J.to_string r));
          match raw_read_line ~timeout:5.0 fd with
          | exception End_of_file -> ()
          | l -> Alcotest.failf "idle connection should be closed, read %s" l);
      (* other clients are untouched *)
      let conn = Serve.Client.connect socket in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close conn)
        (fun () ->
          check "fresh client fine after idle sweep" true
            (P.response_ok (Serve.Client.rpc conn P.Stats));
          let stats = Serve.Client.rpc conn P.Stats in
          check "deadline close counted" true
            (stat stats "deadline_closes" >= 1)))

let test_protocol_fuzz () =
  with_server (fun socket ->
      let prop lines =
        let lines =
          List.map
            (String.map (fun c -> if c = '\n' || c = '\r' then ' ' else c))
            lines
        in
        let fd = raw_connect socket in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            List.iter (fun l -> raw_send fd (l ^ "\n")) lines;
            (* every junk line draws exactly one structured reply;
               blank lines are skipped by design *)
            let rbuf = Buffer.create 256 in
            List.for_all
              (fun _ ->
                let r = J.of_string (raw_read_line ~buf:rbuf fd) in
                not (P.response_ok r))
              (List.filter (fun l -> String.trim l <> "") lines))
        && begin
             (* and the server is still healthy for real traffic *)
             let conn = Serve.Client.connect socket in
             Fun.protect
               ~finally:(fun () -> Serve.Client.close conn)
               (fun () -> P.response_ok (Serve.Client.rpc conn P.Stats))
           end
      in
      QCheck.Test.check_exn
        (QCheck.Test.make ~count:30
           ~name:"fuzz: junk lines draw structured errors, never a crash"
           QCheck.(
             make
               Gen.(
                 list_size (int_range 1 6)
                   (string_size
                      ~gen:(char_range '\001' '~')
                      (int_range 1 120)))
               ~print:(fun ls -> String.concat "|" ls))
           prop))

let test_sweep_verb () =
  with_server (fun socket ->
      let conn = Serve.Client.connect socket in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close conn)
        (fun () ->
          let sw =
            { P.sw_kernels = Some [ "hydro" ];
              sw_pes = [ 1; 2 ];
              sw_waves = [ 2 ];
              sw_size = 8 }
          in
          let resp = Serve.Client.rpc conn (P.Sweep sw) in
          check "sweep ok" true (P.response_ok resp);
          (* the same grid computed directly must match byte for byte —
             the served artifact is interchangeable with sweep.exe's *)
          let cells =
            Exec.Sweep.grid
              ~kernels:[ Kernels.find "hydro" ]
              ~pes:sw.P.sw_pes ~waves:sw.P.sw_waves ~size:sw.P.sw_size
          in
          let rows =
            List.map
              (fun c ->
                (Ok (Exec.Sweep.run_cell c)
                  : (Exec.Sweep.row, Exec.Pool.error) result))
              cells
          in
          check_string "served grid byte-identical to local sweep"
            (J.to_string (Exec.Sweep.to_json rows))
            (J.to_string (J.member "grid" resp))))

(* --- durability ------------------------------------------------------- *)

let test_idempotency_dedup () =
  with_server (fun socket ->
      let run = { tiny_run with P.idem = Some "dedup-test-1" } in
      let expected = standalone run in
      let conn = Serve.Client.connect socket in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close conn)
        (fun () ->
          let r1 = Serve.Client.rpc conn (P.Simulate run) in
          (* the at-least-once retry: answered from the record, not
             re-run *)
          let r2 = Serve.Client.rpc conn (P.Simulate run) in
          check_served_identical ~label:"first" r1 expected;
          check_served_identical ~label:"retried" r2 expected;
          List.iter
            (fun f ->
              check_string
                (Printf.sprintf "retry byte-identical on %s" f)
                (J.to_string (J.member f r1))
                (J.to_string (J.member f r2)))
            [ "outputs"; "digest"; "end_time"; "cache_hit"; "metrics" ];
          let stats = Serve.Client.rpc conn P.Stats in
          check_int "dedup counted" 1 (stat stats "deduped");
          (* a retry while the original is still in flight attaches to
             it: both answers identical *)
          let slow =
            { (P.default_run (P.Kernel { name = "hydro"; size = 8 })) with
              P.waves = 40;
              engine = `Machine;
              idem = Some "dedup-inflight-1" }
          in
          let a = Serve.Client.send conn (P.Simulate slow) in
          let b = Serve.Client.send conn (P.Simulate slow) in
          let ra = Serve.Client.await conn a in
          let rb = Serve.Client.await conn b in
          check "in-flight twin ok" true
            (P.response_ok ra && P.response_ok rb);
          check_string "in-flight twin digests identical"
            (J.to_string (J.member "digest" ra))
            (J.to_string (J.member "digest" rb))))

let test_journal_crash_replay () =
  let journal =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dfserve-test-journal-%d.wal" (Unix.getpid ()))
  in
  (try Sys.remove journal with Sys_error _ -> ());
  Fun.protect
    ~finally:(fun () -> try Sys.remove journal with Sys_error _ -> ())
    (fun () ->
      let run =
        { (P.default_run (P.Kernel { name = "tridiag"; size = 8 })) with
          P.waves = 2;
          engine = `Machine;
          idem = Some "jr-1" }
      in
      let expected = standalone run in
      (* generation 1 answers and journals *)
      with_server_t ~journal (fun socket _ ->
          let conn = Serve.Client.connect socket in
          Fun.protect
            ~finally:(fun () -> Serve.Client.close conn)
            (fun () ->
              check_served_identical ~label:"generation 1"
                (Serve.Client.rpc conn (P.Simulate run))
                expected));
      (* generation 2, same journal: the retried request is answered
         from the recorded response without re-running *)
      with_server_t ~journal (fun socket _ ->
          let conn = Serve.Client.connect socket in
          Fun.protect
            ~finally:(fun () -> Serve.Client.close conn)
            (fun () ->
              check_served_identical ~label:"post-restart retry"
                (Serve.Client.rpc conn (P.Simulate run))
                expected;
              let stats = Serve.Client.rpc conn P.Stats in
              check_int "answered from the record" 1 (stat stats "deduped")));
      (* an admission the dead server never finished: re-run on startup,
         the retry collects the result *)
      let pend = { run with P.idem = Some "jr-pending" } in
      let jr = Serve.Journal.open_append journal in
      Serve.Journal.append jr
        (Serve.Journal.Admit
           { idem = "jr-pending";
             request = P.request_to_json ~id:0 (P.Simulate pend) });
      Serve.Journal.close jr;
      with_server_t ~journal (fun socket _ ->
          let conn = Serve.Client.connect socket in
          Fun.protect
            ~finally:(fun () -> Serve.Client.close conn)
            (fun () ->
              check_served_identical ~label:"recovered pending"
                (Serve.Client.rpc conn (P.Simulate pend))
                (standalone pend);
              let stats = Serve.Client.rpc conn P.Stats in
              check_int "pending admission replayed" 1
                (stat stats "replayed")));
      (* generation 4 compacts on startup with retention 0: the
         completed history is dropped (the journal shrinks to nothing),
         so the old retry re-RUNS — and determinism makes the re-run
         answer bit-identical anyway *)
      with_server_t ~journal ~journal_retain:0 (fun socket _ ->
          let conn = Serve.Client.connect socket in
          Fun.protect
            ~finally:(fun () -> Serve.Client.close conn)
            (fun () ->
              check_served_identical ~label:"post-compaction re-run"
                (Serve.Client.rpc conn (P.Simulate run))
                expected;
              let stats = Serve.Client.rpc conn P.Stats in
              check_int "nothing left to answer from the record" 0
                (stat stats "deduped");
              check_int "nothing left to replay" 0 (stat stats "replayed"))))

(* A journal written by an older build: the pending job's Progress
   checkpoint is in a format this build cannot read.  Startup must log
   the rejection and rerun the job from scratch, so the retry still
   collects the standalone answer bit for bit. *)
let test_journal_old_checkpoint_reruns () =
  let journal =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dfserve-test-oldck-%d.wal" (Unix.getpid ()))
  in
  (try Sys.remove journal with Sys_error _ -> ());
  Fun.protect
    ~finally:(fun () -> try Sys.remove journal with Sys_error _ -> ())
    (fun () ->
      let run =
        { (P.default_run (P.Kernel { name = "hydro"; size = 8 })) with
          P.waves = 3;
          engine = `Machine;
          idem = Some "old-ck" }
      in
      let cfg, arch, graph, inputs = machine_parts run in
      let m = ME.create_cfg cfg ~arch graph ~inputs in
      ME.advance m ~until:60;
      check "checkpoint taken mid-run" false (ME.finished m);
      let old_doc =
        match Recover.Checkpoint.to_json ~graph (ME.snapshot m) with
        | J.Obj fields ->
          J.Obj
            (List.map
               (fun (k, v) -> if k = "version" then (k, J.Int 4) else (k, v))
               fields)
        | _ -> Alcotest.fail "checkpoint document is not an object"
      in
      check "this build rejects the old document" true
        (Result.is_error (Recover.Checkpoint.of_json ~arena:(Arena.build graph) old_doc));
      let jr = Serve.Journal.open_append journal in
      Serve.Journal.append jr
        (Serve.Journal.Admit
           { idem = "old-ck"; request = P.request_to_json ~id:0 (P.Simulate run) });
      Serve.Journal.append jr
        (Serve.Journal.Progress { idem = "old-ck"; checkpoint = old_doc });
      Serve.Journal.close jr;
      with_server_t ~journal (fun socket _ ->
          let conn = Serve.Client.connect socket in
          Fun.protect
            ~finally:(fun () -> Serve.Client.close conn)
            (fun () ->
              check_served_identical ~label:"rerun after rejected checkpoint"
                (Serve.Client.rpc conn (P.Simulate run))
                (standalone run);
              let stats = Serve.Client.rpc conn P.Stats in
              check_int "pending admission replayed" 1 (stat stats "replayed"))))

(* --- federation ------------------------------------------------------- *)

let test_rendezvous_routing () =
  let members = [ "alpha"; "bravo"; "charlie"; "delta" ] in
  for key = 0 to 20 do
    let order = Serve.Cluster.rendezvous_order ~key members in
    check "permutation of the member list" true
      (List.sort compare order = List.sort compare members);
    check "deterministic" true
      (order = Serve.Cluster.rendezvous_order ~key members);
    check "independent of input order" true
      (order = Serve.Cluster.rendezvous_order ~key (List.rev members));
    (* the HRW property everything rests on: removing the winner
       reshuffles nothing among the survivors *)
    match order with
    | winner :: rest ->
      let without = List.filter (fun m -> m <> winner) members in
      check "survivors keep their relative order" true
        (Serve.Cluster.rendezvous_order ~key without = rest)
    | [] -> Alcotest.fail "empty order"
  done;
  let winners =
    List.init 64 (fun key ->
        List.hd (Serve.Cluster.rendezvous_order ~key members))
  in
  check "keys spread across members" true
    (List.length (List.sort_uniq compare winners) >= 2);
  (* member-list parsing: comma form, @file form, rejects *)
  (match Runspec.members_of_string "a.sock,b.sock,c.sock" with
  | Ok m ->
    Alcotest.(check (list string)) "comma list"
      [ "a.sock"; "b.sock"; "c.sock" ] m
  | Error e -> Alcotest.failf "comma list: %s" e);
  check "empty spec rejected" true
    (Result.is_error (Runspec.members_of_string ""));
  check "duplicate member rejected" true
    (Result.is_error (Runspec.members_of_string "x.sock,x.sock"));
  let file = Filename.temp_file "members" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      let oc = open_out file in
      output_string oc "# the fleet\none.sock\n\ntwo.sock\n";
      close_out oc;
      match Runspec.members_of_string ("@" ^ file) with
      | Ok m ->
        Alcotest.(check (list string)) "@file form (comments, blanks)"
          [ "one.sock"; "two.sock" ] m
      | Error e -> Alcotest.failf "@file: %s" e)

let test_backoff_property () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:200
       ~name:"backoff: pure in (seed, attempt), positive, bounded by 1.5x cap"
       QCheck.(pair int (int_range 1 12))
       (fun (seed, attempts) ->
         let retry =
           { Serve.Client.default_retry with
             Serve.Client.retry_seed = seed;
             attempts }
         in
         let schedule () =
           List.init attempts (fun a ->
               Serve.Client.backoff_delay retry ~attempt:a)
         in
         let s1 = schedule () in
         s1 = schedule ()
         && List.for_all
              (fun d ->
                d > 0.0 && d <= retry.Serve.Client.max_delay *. 1.5)
              s1))

(* a socket path that rendezvous-ranks ahead of [socket] for [key],
   with no server behind it: the corpse the router must route around *)
let dead_first ~key socket =
  let rec hunt i =
    let cand = Printf.sprintf "%s.dead%d" socket i in
    match Serve.Cluster.rendezvous_order ~key [ cand; socket ] with
    | first :: _ when first = cand -> cand
    | _ -> hunt (i + 1)
  in
  hunt 0

let test_cluster_failover () =
  with_server (fun socket ->
      let run = { tiny_run with P.idem = Some "fo-1" } in
      let key = Serve.Cluster.routing_key run.P.program in
      let dead = dead_first ~key socket in
      let retry =
        { Serve.Client.attempts = 2;
          base_delay = 0.01;
          max_delay = 0.02;
          retry_seed = 1 }
      in
      let t = Serve.Cluster.create ~deadline:10.0 ~retry [ dead; socket ] in
      (* the preferred member is dead: the submit lands on the live one
         and the answer is the standalone answer, bit for bit *)
      let resp, served_by = Serve.Cluster.submit t ~key (P.Simulate run) in
      check_string "served by the live member" socket served_by;
      check_served_identical ~label:"failover" resp (standalone run);
      check_int "one failover recorded" 1 (Serve.Cluster.failovers t);
      (* probing marks the corpse Down (second straight failure) and
         confirms the live member Up *)
      let probes = Serve.Cluster.probe ~deadline:1.0 t in
      List.iter2
        (fun (addr, r) (addr', h) ->
          check_string "probe and health agree on order" addr addr';
          if addr = socket then begin
            check "live probe answers" true (Result.is_ok r);
            check "live member Up" true (h = Serve.Cluster.Up)
          end
          else begin
            check "dead probe errors" true (Result.is_error r);
            check "dead member Down after two failures" true
              (h = Serve.Cluster.Down)
          end)
        probes (Serve.Cluster.health t);
      (* the cluster-level retry of the same keyed request: answered
         from the server's idempotency record, not re-run *)
      let resp2, served_by2 = Serve.Cluster.submit t ~key (P.Simulate run) in
      check_string "retry lands on the live member" socket served_by2;
      check "retry ok" true (P.response_ok resp2);
      check_int "a Down member is skipped, not retried" 1
        (Serve.Cluster.failovers t);
      let conn = Serve.Client.connect socket in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close conn)
        (fun () ->
          let stats = Serve.Client.rpc conn P.Stats in
          check "retry answered from the record" true
            (stat stats "deduped" >= 1)))

let test_lru_conservation () =
  (* a capacity-2 cache thrashed by 4 concurrent clients rotating over
     3 programs: every response still bit-identical, and the cache
     counters conserve — every lookup is a hit or a miss, every miss
     becomes an entry or an eviction *)
  with_server_t ~cache:2 (fun socket _ ->
      let runs =
        Array.map
          (fun p -> { (P.default_run p) with P.waves = 1 })
          [| P.Kernel { name = "hydro"; size = 6 };
             P.Kernel { name = "hydro"; size = 8 };
             P.Kernel { name = "tridiag"; size = 8 } |]
      in
      let expected = Array.map standalone runs in
      let domains = 4 and per = 8 in
      let ds =
        List.init domains (fun d ->
            Domain.spawn (fun () ->
                let conn = Serve.Client.connect socket in
                Fun.protect
                  ~finally:(fun () -> Serve.Client.close conn)
                  (fun () ->
                    List.init per (fun i ->
                        let j = (d + i) mod Array.length runs in
                        (j, Serve.Client.rpc conn (P.Simulate runs.(j)))))))
      in
      let resps = List.concat_map Domain.join ds in
      check_int "every request answered" (domains * per) (List.length resps);
      List.iter
        (fun (j, r) ->
          check_served_identical
            ~label:(Printf.sprintf "thrashed program %d" j)
            r expected.(j))
        resps;
      let conn = Serve.Client.connect socket in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close conn)
        (fun () ->
          let stats = Serve.Client.rpc conn P.Stats in
          let hits = stat stats "cache_hits"
          and misses = stat stats "cache_misses"
          and entries = stat stats "cache_entries"
          and evictions = stat stats "cache_evictions" in
          check_int "every lookup is a hit or a miss" (domains * per)
            (hits + misses);
          check_int "every miss became an entry or an eviction" misses
            (entries + evictions);
          check "capacity respected" true (entries <= 2);
          check "the thrash really evicted" true (evictions > 0)))

let test_migrate_states () =
  with_server_t ~workers:1 ~slice:2000 ~name:"mig-states" (fun socket _ ->
      let conn = Serve.Client.connect socket in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close conn)
        (fun () ->
          let state r =
            Option.value ~default:"?" (J.get_string (J.member "state" r))
          in
          let r = Serve.Client.rpc conn (P.Migrate "no-such-job") in
          check_string "unknown key" "not_found" (state r);
          (* a completed key: the recorded response rides along, so the
             coordinator can answer without re-running anything *)
          let done_run = { tiny_run with P.idem = Some "ms-done" } in
          let orig = Serve.Client.rpc conn (P.Simulate done_run) in
          let r = Serve.Client.rpc conn (P.Migrate "ms-done") in
          check_string "completed key" "done" (state r);
          check_string "recorded response rides along"
            (J.to_string (J.member "digest" orig))
            (J.to_string (J.member "digest" (J.member "response" r)));
          (* a queued key: never ran here, so the request is handed back
             for resubmission and the original submitter is cancelled *)
          let running = Serve.Client.send conn (P.Simulate (long_run ())) in
          let queued_run = { tiny_run with P.idem = Some "ms-queued" } in
          let queued = Serve.Client.send conn (P.Simulate queued_run) in
          Unix.sleepf 0.2;
          let r = Serve.Client.rpc conn (P.Migrate "ms-queued") in
          check_string "queued key handed back" "queued" (state r);
          (match P.request_of_json (J.member "request" r) with
          | Ok (_, P.Simulate back) ->
            check_string "request round-trips for resubmission"
              (J.to_string (P.request_to_json ~id:0 (P.Simulate queued_run)))
              (J.to_string (P.request_to_json ~id:0 (P.Simulate back)))
          | _ -> Alcotest.fail "migrate of a queued job must return the request");
          (match P.response_error (Serve.Client.await conn queued) with
          | Some (Some P.Cancelled, _) -> ()
          | _ -> Alcotest.fail "evacuated queued job answers cancelled");
          (* put the long job down so shutdown drains immediately *)
          ignore (Serve.Client.rpc conn (P.Cancel running));
          match P.response_error (Serve.Client.await conn running) with
          | Some (Some P.Cancelled, _) -> ()
          | _ -> Alcotest.fail "long job preempts on cancel"))

let test_migrate_between_servers () =
  (* the tentpole, in miniature: a machine job runs on the source,
     gets preempted at a slice boundary, its checkpoint travels the
     wire, and the target resumes it to the exact bytes an
     uninterrupted standalone run produces *)
  with_server_t ~slice:2000 ~name:"mig-src" (fun src _ ->
      with_server_t ~slice:2000 ~max_line:(8 * 1024 * 1024) ~name:"mig-dst"
        (fun dst _ ->
          let run = { (long_run ()) with P.idem = Some "mig-live-1" } in
          let conn = Serve.Client.connect src in
          Fun.protect
            ~finally:(fun () -> Serve.Client.close conn)
            (fun () ->
              let id = Serve.Client.send conn (P.Simulate run) in
              (* let it dispatch and start slicing *)
              Unix.sleepf 0.3;
              let resp, how =
                Serve.Cluster.migrate ~source:src ~target:dst run
              in
              check_string "live job migrated" "migrated" how;
              check_served_identical ~label:"migrated job" resp
                (standalone run);
              (* the original submitter hears a structured cancel, not
                 silence *)
              (match P.response_error (Serve.Client.await conn id) with
              | Some (Some P.Cancelled, _) -> ()
              | _ ->
                Alcotest.fail
                  "source should answer the original submitter cancelled");
              let stats = Serve.Client.rpc conn P.Stats in
              check_int "source counted the migration" 1
                (stat stats "migrations");
              let cd = Serve.Client.connect dst in
              Fun.protect
                ~finally:(fun () -> Serve.Client.close cd)
                (fun () ->
                  let ds = Serve.Client.rpc cd P.Stats in
                  check "target compiled and ran the refugee" true
                    (stat ds "cache_misses" >= 1)))))

(* --- job lifecycle ------------------------------------------------------ *)

let keyed idem = { tiny_run with P.idem = Some idem }

let error_kind r =
  match P.response_error r with Some (kind, _) -> kind | None -> None

let state r = Option.value ~default:"?" (J.get_string (J.member "state" r))

(* a stats round trip: every request [conn] sent before it has been
   handled (the server reads each connection in order, but interleaves
   connections as it likes) *)
let sync conn = ignore (Serve.Client.rpc conn P.Stats)

(* poll [stats] on [conn] until [ready] holds *)
let settle ?(timeout = 10.0) conn ready =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    let s = Serve.Client.rpc conn P.Stats in
    if ready s then s
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "stats never settled: %s" (J.to_string s)
    else begin
      Unix.sleepf 0.02;
      go ()
    end
  in
  go ()

let with_conn ?deadline socket f =
  let conn = Serve.Client.connect ?deadline socket in
  Fun.protect ~finally:(fun () -> Serve.Client.close conn) (fun () -> f conn)

(* A migrated-in checkpoint whose PE numbers, cursors or per-PE arrays
   do not fit the machine decodes cleanly; the served run answers an
   error naming the field instead of an index error from the engine.
   One whose queued event names a port no arc feeds does not decode,
   and the request is refused as a bad request naming the event. *)
let test_served_tampered_restore () =
  let run =
    { (P.default_run (P.Kernel { name = "hydro"; size = 8 })) with
      P.waves = 4;
      engine = `Machine }
  in
  let cfg, arch, graph, inputs = machine_parts run in
  let m = ME.create_cfg cfg ~arch graph ~inputs in
  ME.advance m ~until:50;
  let doc = Recover.Checkpoint.to_json ~graph (ME.snapshot m) in
  with_server (fun socket ->
      with_conn socket (fun conn ->
          List.iter
            (fun (field, f, expected) ->
              let restore = Test_recover.map_field doc field f in
              let r = { run with P.restore = Some restore } in
              match P.response_error (Serve.Client.rpc conn (P.Simulate r)) with
              | Some (Some P.Run_error, msg) ->
                check_string (field ^ ": served error")
                  (Printf.sprintf "Invalid_argument(%S)" expected) msg
              | _ -> Alcotest.failf "%s: no run error" field)
            (Test_recover.tampered_state_cases ~n_pe:arch.Machine.Arch.n_pe);
          let n_ports = (Arena.build graph).Arena.n_ports in
          let restore =
            Test_recover.map_field doc "events" (function
              | J.List (e :: rest) ->
                J.List
                  (Test_recover.map_field e "port" (fun _ -> J.Int n_ports)
                  :: rest)
              | j -> Alcotest.failf "no event queued: %s" (J.to_string j))
          in
          let r = { run with P.restore = Some restore } in
          match P.response_error (Serve.Client.rpc conn (P.Simulate r)) with
          | Some (Some P.Bad_request, msg) ->
            check_string "event port: served error"
              (Printf.sprintf
                 "restore: events[0]: port %d is not an arc port of the graph"
                 n_ports)
              msg
          | _ -> Alcotest.fail "event port: no bad request"))

let test_fair_dispatch () =
  let journal =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dfserve-test-fair-%d.wal" (Unix.getpid ()))
  in
  (try Sys.remove journal with Sys_error _ -> ());
  Fun.protect
    ~finally:(fun () -> try Sys.remove journal with Sys_error _ -> ())
    (fun () ->
      with_server_t ~workers:1 ~journal ~name:"fair" (fun socket _ ->
          with_conn socket (fun a ->
          with_conn socket (fun b ->
          (* both connections join the rotation, a first, before any job
             is dispatched *)
          sync a;
          sync b;
          let blocker = Serve.Client.send a (P.Simulate (long_run ())) in
          let backlog =
            List.map
              (fun k -> Serve.Client.send a (P.Simulate (keyed k)))
              [ "fair-a1"; "fair-a2"; "fair-a3" ]
          in
          sync a;
          let late = Serve.Client.send b (P.Simulate (keyed "fair-b1")) in
          check_int "backlog and late job queued" 4
            (stat (Serve.Client.rpc b P.Stats) "queue_depth");
          check_string "blocker still running" "preempting"
            (state (Serve.Client.rpc a (P.Cancel blocker)));
          check "blocker preempted" true
            (error_kind (Serve.Client.await a blocker) = Some P.Cancelled);
          List.iter
            (fun id ->
              check "backlog job ok" true
                (P.response_ok (Serve.Client.await a id)))
            backlog;
          check "late job ok" true
            (P.response_ok (Serve.Client.await b late)))));
      (* with one worker the journal's Done records are the dispatch
         order *)
      let done_order =
        List.filter_map
          (function Serve.Journal.Done { idem; _ } -> Some idem | _ -> None)
          (Serve.Journal.replay journal)
      in
      Alcotest.(check (list string))
        "the second client's job runs ahead of the first's backlog"
        [ "fair-b1"; "fair-a1"; "fair-a2"; "fair-a3" ]
        done_order)

let test_disconnect_queued () =
  with_server_t ~workers:1 ~name:"disconnect" (fun socket _ ->
      with_conn socket (fun a ->
      let blocker = Serve.Client.send a (P.Simulate (long_run ())) in
      sync a;
      let orphan = keyed "disc-k" in
      let b = Serve.Client.connect socket in
      ignore (Serve.Client.send b (P.Simulate orphan));
      ignore (Serve.Client.send b (P.Simulate tiny_run));
      check_int "both queued behind the blocker" 2
        (stat (Serve.Client.rpc b P.Stats) "queue_depth");
      Serve.Client.close b;
      ignore (settle a (fun s -> stat s "clients" = 1));
      check_string "blocker still running" "preempting"
        (state (Serve.Client.rpc a (P.Cancel blocker)));
      check "blocker preempted" true
        (error_kind (Serve.Client.await a blocker) = Some P.Cancelled);
      let s =
        settle a (fun s -> stat s "queue_depth" = 0 && stat s "in_flight" = 0)
      in
      check_int "the keyed job ran, the keyless one did not" 1
        (stat s "completed");
      with_conn socket (fun c ->
      check_served_identical ~label:"retry of the orphaned key"
        (Serve.Client.rpc c (P.Simulate orphan))
        (standalone orphan);
      let s = Serve.Client.rpc c P.Stats in
      check_int "answered from the record" 1 (stat s "deduped");
      check_int "not run again" 1 (stat s "completed");
      check_int "a disconnect drop is no cancellation" 0
        (stat s "cancelled"))))

let test_drain_budget () =
  let long = long_run ~waves:5500 () in
  with_server ~workers:1 ~drain_timeout:0.1 (fun socket ->
      with_conn socket (fun a ->
      with_conn socket (fun b ->
      let running = Serve.Client.send a (P.Simulate long) in
      let run = keyed "drain-k" in
      let queued = Serve.Client.send a (P.Simulate run) in
      let keyless = Serve.Client.send a (P.Simulate tiny_run) in
      sync a;
      let twin = Serve.Client.send b (P.Simulate run) in
      check_int "the twin rides the queued job" 1
        (stat (Serve.Client.rpc b P.Stats) "deduped");
      check "shutdown acknowledged" true
        (P.response_ok (Serve.Client.rpc b P.Shutdown));
      List.iter
        (fun (label, conn, id) ->
          check label true
            (error_kind (Serve.Client.await conn id) = Some P.Shutting_down))
        [ ("queued keyed job dumped", a, queued);
          ("queued keyless job dumped", a, keyless);
          ("its twin dumped too", b, twin) ];
      (* the checkpoint runs to megabytes: it must arrive whole *)
      let resp = Serve.Client.await a running in
      check "running job preempted" true (error_kind resp = Some P.Cancelled);
      let cfg, arch, graph, inputs = machine_parts long in
      (match Recover.Checkpoint.of_json ~arena:(Arena.build graph) (J.member "checkpoint" resp) with
      | Error e -> Alcotest.failf "checkpoint decode: %s" e
      | Ok snapshot ->
        check "preempted mid-run" true (snapshot.ME.sn_time > 0);
        let m = ME.create_cfg cfg ~arch graph ~inputs in
        ME.restore m snapshot;
        ME.advance m ~until:max_int;
        let resumed = ME.result m in
        let oneshot = ME.run_cfg cfg ~arch graph ~inputs in
        check_int "resumed end time = uninterrupted" oneshot.ME.end_time
          resumed.ME.end_time;
        check_int "resumed digest = uninterrupted"
          (Integrity.digest_outputs oneshot.ME.outputs)
          (Integrity.digest_outputs resumed.ME.outputs));
      (* serve returns: it removes its socket on the way out *)
      let deadline = Unix.gettimeofday () +. 10.0 in
      while Sys.file_exists socket && Unix.gettimeofday () < deadline do
        Unix.sleepf 0.02
      done;
      check "serve returned" false (Sys.file_exists socket))))

(* A dumped job's key is forgotten while the drain still waits for the
   running job: a long slice keeps that job busy for a few hundred
   milliseconds after the dump. *)
let test_drain_forgets_dumped_keys () =
  with_server ~workers:1 ~slice:1_000_000 ~drain_timeout:0.05 (fun socket ->
      with_conn socket (fun a ->
      let running = Serve.Client.send a (P.Simulate (long_run ())) in
      let run = keyed "dumped-k" in
      let queued = Serve.Client.send a (P.Simulate run) in
      sync a;
      check "shutdown acknowledged" true
        (P.response_ok (Serve.Client.rpc a P.Shutdown));
      check "queued job dumped" true
        (error_kind (Serve.Client.await a queued) = Some P.Shutting_down);
      check_string "a dumped key has nothing to migrate" "not_found"
        (state (Serve.Client.rpc a (P.Migrate "dumped-k")));
      check "a retry of the dumped key is refused, not parked" true
        (error_kind (Serve.Client.rpc a (P.Simulate run))
        = Some P.Shutting_down);
      check "running job preempted" true
        (error_kind (Serve.Client.await a running) = Some P.Cancelled)))

let test_cancel_queued_twin () =
  with_server_t ~workers:1 ~name:"cancel-twin" (fun socket _ ->
      with_conn socket (fun a ->
      with_conn socket (fun b ->
      let blocker = Serve.Client.send a (P.Simulate (long_run ())) in
      let run = keyed "cancel-k" in
      let queued = Serve.Client.send a (P.Simulate run) in
      sync a;
      let twin = Serve.Client.send b (P.Simulate run) in
      check_int "the twin rides the queued job" 1
        (stat (Serve.Client.rpc b P.Stats) "deduped");
      check_string "queued job cancelled" "cancelled"
        (state (Serve.Client.rpc a (P.Cancel queued)));
      check "owner hears cancelled" true
        (error_kind (Serve.Client.await a queued) = Some P.Cancelled);
      check "twin hears cancelled" true
        (error_kind (Serve.Client.await b twin) = Some P.Cancelled);
      ignore (Serve.Client.rpc a (P.Cancel blocker));
      ignore (Serve.Client.await a blocker);
      (* the key was forgotten: the same request now runs fresh *)
      check_served_identical ~label:"fresh run under the cancelled key"
        (Serve.Client.rpc b (P.Simulate run))
        (standalone run);
      let s = Serve.Client.rpc b P.Stats in
      check_int "the fresh run was not deduped" 1 (stat s "deduped");
      check_int "one cancellation" 1 (stat s "cancelled");
      check_int "one completion" 1 (stat s "completed"))))

let test_migrate_twice () =
  (* one slice spans all but the last 3% of the run, so both callers ask
     while the job is still inside its first slice *)
  with_server_t ~workers:1 ~slice:1_000_000 ~name:"mig-twice" (fun socket _ ->
      let run = { (long_run ()) with P.idem = Some "mig-twice" } in
      with_conn socket (fun owner ->
      let id = Serve.Client.send owner (P.Simulate run) in
      Unix.sleepf 0.1;
      with_conn ~deadline:5.0 socket (fun m1 ->
      with_conn ~deadline:5.0 socket (fun m2 ->
      let q1 = Serve.Client.send m1 (P.Migrate "mig-twice") in
      let q2 = Serve.Client.send m2 (P.Migrate "mig-twice") in
      let answer label conn q =
        match Serve.Client.await conn q with
        | r -> r
        | exception Serve.Client.Timeout ->
          Alcotest.failf "%s migrate caller never answered" label
      in
      let r1 = answer "first" m1 q1 in
      let r2 = answer "second" m2 q2 in
      check_string "first caller" "migrated" (state r1);
      check_string "second caller" "migrated" (state r2);
      check_string "one checkpoint for both"
        (J.to_string (J.member "checkpoint" r1))
        (J.to_string (J.member "checkpoint" r2));
      check "owner hears cancelled" true
        (error_kind (Serve.Client.await owner id) = Some P.Cancelled);
      check_int "counted as one migration" 1
        (stat (Serve.Client.rpc owner P.Stats) "migrations")))))

(* job_of_run is the one resolver from a request to a job: a kernel
   request feeds the streams the differential harnesses' subject feeds,
   the arch and the auto watchdog land in the job, and bad specs come
   back as errors *)
(* the config a request resolves to passes the one validity check both
   engines apply, so a bad window is a structured error, not a raise *)
let test_config_of_run_checks () =
  let run =
    { (P.default_run (P.Kernel { name = "hydro"; size = 8 })) with
      P.watchdog = P.At 0 }
  in
  match Serve.Server.config_of_run run with
  | Error e -> check_string "the error names the key" "watchdog must be > 0" e
  | Ok _ -> Alcotest.fail "config_of_run accepted a zero watchdog"

(* A configuration refused by its field checks touches nothing: a file
   already at the socket path keeps its bytes. *)
let test_refused_config_keeps_socket_path () =
  let path = Filename.temp_file "dfserve-refused" ".sock" in
  Out_channel.with_open_bin path (fun oc -> output_string oc "keep me");
  let config =
    { (Serve.Server.default_config ~socket_path:path) with
      Serve.Server.journal_path = Some (path ^ ".wal");
      journal_retain = Some (-1) }
  in
  Alcotest.check_raises "refused"
    (Invalid_argument "Server.create: journal_retain < 0") (fun () ->
      ignore (Serve.Server.create config));
  check_string "the file at the socket path is untouched" "keep me"
    (In_channel.with_open_bin path In_channel.input_all);
  check "no journal opened" false (Sys.file_exists (path ^ ".wal"));
  Sys.remove path

(* A TCP port already in use fails [create] after the Unix socket is
   bound: the socket file goes with it. *)
let test_busy_tcp_port_leaves_no_socket () =
  let busy = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close busy)
    (fun () ->
      Unix.bind busy (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      Unix.listen busy 1;
      let port =
        match Unix.getsockname busy with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> Alcotest.fail "no TCP port"
      in
      let socket =
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "dfserve-test-%d-busy.sock" (Unix.getpid ()))
      in
      let config =
        { (Serve.Server.default_config ~socket_path:socket) with
          Serve.Server.tcp = Some ("127.0.0.1", port) }
      in
      (match Serve.Server.create config with
      | _ -> Alcotest.fail "create bound a busy TCP port"
      | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) -> ());
      check "no socket file left" false (Sys.file_exists socket))

let test_job_of_run () =
  let subject =
    Runspec.compile_subject (Kernels.find "hydro") ~size:8 ~waves:3
  in
  let compiled = subject.Runspec.compiled in
  let run =
    { (P.default_run (P.Kernel { name = "hydro"; size = 8 })) with
      P.waves = 3;
      engine = `Machine;
      n_pe = Some 4;
      fault = Some "seed=5,delay=0.2";
      watchdog = P.Auto }
  in
  let job_of r =
    match Serve.Server.job_of_run r compiled with
    | Ok job -> job
    | Error e -> Alcotest.failf "job_of_run: %s" e
  in
  let job = job_of run in
  check "kernel streams = the harness subject's" true
    (job.Exec.Job.inputs = subject.Runspec.inputs);
  check_string "job name" "hydro[8]" job.Exec.Job.name;
  (match job.Exec.Job.engine with
  | Exec.Job.Machine arch -> check_int "pe" 4 arch.Machine.Arch.n_pe
  | Exec.Job.Sim -> Alcotest.fail "machine request ran on the graph engine");
  let watchdog r = (job_of r).Exec.Job.config.Run_config.watchdog in
  let spec =
    match Fault.Fault_plan.of_string "seed=5,delay=0.2" with
    | Ok spec -> spec
    | Error e -> Alcotest.fail e
  in
  check "auto watchdog sized over the plan" true
    (watchdog run = Some (Runspec.watchdog_for spec None));
  check "auto watchdog without a plan" true
    (watchdog { run with P.fault = None }
    = Some (Runspec.watchdog_for Fault.Fault_plan.none None));
  check "out-of-range fault spec is an error" true
    (Result.is_error
       (Serve.Server.job_of_run { run with P.fault = Some "delay=2.0" }
          compiled));
  check "bad recovery spec is an error" true
    (Result.is_error
       (Serve.Server.job_of_run { run with P.recovery = Some "every=x" }
          compiled))

(* Line framing: feed [text] in chunks of the given sizes (cycled),
   taking every line the reader can frame after each chunk; the lines
   and whether [Too_long] stopped it. *)
let frame ?max_line text sizes =
  let r = Serve.Line_reader.create ?max_line () in
  let b = Bytes.of_string text and lines = ref [] in
  let rec drain () =
    match Serve.Line_reader.next r with
    | Some l ->
      lines := l :: !lines;
      drain ()
    | None -> ()
  in
  let rec go off = function
    | [] -> go off sizes
    | k :: ks ->
      if off < Bytes.length b then begin
        let len = min k (Bytes.length b - off) in
        Serve.Line_reader.feed r b off len;
        drain ();
        go (off + len) ks
      end
  in
  match go 0 sizes with
  | () -> (List.rev !lines, false)
  | exception Serve.Line_reader.Too_long -> (List.rev !lines, true)

let test_line_chunking () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:300
       ~name:"any chunking frames the same lines"
       QCheck.(
         triple
           (list (string_gen_of_size Gen.(0 -- 40) Gen.(oneofl [ 'a'; 'b'; '\n' ])))
           (list_of_size Gen.(1 -- 8) (int_range 1 50))
           (int_range 0 30))
       (fun (pieces, sizes, max_line) ->
         let text = String.concat "" pieces in
         let complete, partial =
           match List.rev (String.split_on_char '\n' text) with
           | partial :: rev_lines -> (List.rev rev_lines, partial)
           | [] -> assert false
         in
         (* unbounded: every complete line, whatever the chunking *)
         frame text sizes = (complete, false)
         && frame text [ max_int ] = (complete, false)
         &&
         (* bounded: the lines up to the first too long one, which
            stops the reader (a partial tail counts too) *)
         let rec upto = function
           | l :: ls when String.length l <= max_line -> l :: upto ls
           | _ -> []
         in
         let ok = upto complete in
         let stopped =
           List.length ok < List.length complete
           || String.length partial > max_line
         in
         frame ~max_line text sizes = (ok, stopped)))

let test_long_line_linear () =
  let size = 64 * 1024 * 1024 in
  let line = Bytes.make (size + 1) 'x' in
  Bytes.set line size '\n';
  let r = Serve.Line_reader.create () in
  let t0 = Unix.gettimeofday () in
  let rec go off =
    if off <= size then begin
      Serve.Line_reader.feed r line off (min 4096 (size + 1 - off));
      match Serve.Line_reader.next r with
      | Some l -> l
      | None -> go (off + 4096)
    end
    else Alcotest.fail "no line framed"
  in
  let l = go 0 in
  let took = Unix.gettimeofday () -. t0 in
  check_int "the whole line" size (String.length l);
  if took > 5.0 then
    Alcotest.failf "a 64 MiB line took %.1f s to frame in 4 KiB chunks" took

(* The bytes a cached simulate hit writes, pinned: every kernel at sizes
   8 and 16, one and three waves, on both engines, each run on its
   program's arena as a cache entry keeps it and rendered as the server
   renders a response line.  The MD5 was recorded before the stall
   report, metrics and JSON renderers were rewritten. *)
let test_served_bytes_pinned () =
  let buf = Buffer.create (1 lsl 18) in
  List.iter
    (fun (k : Kernels.kernel) ->
      List.iter
        (fun size ->
          let program = P.Kernel { name = k.Kernels.name; size } in
          let compiled =
            match Serve.Server.compile_program program with
            | Ok compiled -> compiled
            | Error e -> Alcotest.failf "%s: %s" k.Kernels.name e
          in
          let arena = Arena.build compiled.Compiler.Program_compile.cp_graph in
          List.iter
            (fun waves ->
              List.iter
                (fun engine ->
                  let r = { (P.default_run program) with P.waves; engine } in
                  let job =
                    match Serve.Server.job_of_run ~arena r compiled with
                    | Ok job -> job
                    | Error e -> Alcotest.failf "%s: %s" k.Kernels.name e
                  in
                  Buffer.add_string buf
                    (J.to_string
                       (P.ok ~id:7 ~verb:"simulate"
                          (P.outcome_fields ~cache_hit:true ~key:1
                             (Exec.Job.run job))));
                  Buffer.add_char buf '\n')
                [ `Sim; `Machine ])
            [ 1; 3 ])
        [ 8; 16 ])
    Kernels.all;
  check_int "response bytes" 149305 (Buffer.length buf);
  check_string "response MD5" "2b8bed2aeb4248363122ba0a81daadab"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* An injected drop closes the connection, and the retry layer's
   cleanup closes it again.  The second close must not touch the fd
   number, which the process may have handed out in between: in an
   in-process soak that was the server's freshly accepted socket, and
   the server's loop died on it. *)
let test_client_close_once () =
  with_server (fun socket ->
      let drop = { Serve.Netfault.none with Serve.Netfault.drop_prob = 1.0 } in
      let c = Serve.Client.connect ~netfault:drop socket in
      (match Serve.Client.send c P.Stats with
      | _ -> Alcotest.fail "a certain drop must raise"
      | exception Serve.Client.Injected _ -> ());
      let reused = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
      Serve.Client.close c;
      (match Unix.fstat reused with
      | _ -> Unix.close reused
      | exception Unix.Unix_error (e, _, _) ->
        Alcotest.failf "the second close closed a reused fd: %s"
          (Unix.error_message e));
      let conn = Serve.Client.connect socket in
      check "server still answers" true
        (P.response_ok (Serve.Client.rpc conn P.Stats));
      Serve.Client.close conn)

(* A case's index is its id on the command line (`test serve N`): new
   cases go at the end, and a deleted case's slot takes the last case, so
   every other case keeps its id. *)
let suite =
  [
    Alcotest.test_case "protocol: request wire round-trip" `Quick
      test_protocol_request_roundtrip;
    Alcotest.test_case "protocol: value/output encoding" `Quick
      test_protocol_values;
    Alcotest.test_case "protocol: structured errors" `Quick
      test_protocol_errors;
    Alcotest.test_case "lru: recency, eviction, counters" `Quick test_lru;
    Alcotest.test_case "server: N requests, 1 compile, N-1 hits" `Quick
      test_cache_contract;
    Alcotest.test_case "server: faulted machine run bit-identical" `Quick
      test_served_faulted_machine;
    Alcotest.test_case "server: bounded admission rejects overload" `Quick
      test_overload_rejection;
    Alcotest.test_case "server: cancel queued, preempt running, restore"
      `Quick test_cancel_and_preempt;
    Alcotest.test_case "server: compile verb and error taxonomy" `Quick
      test_compile_verb_and_errors;
    Alcotest.test_case "server: tcp transport bit-identical" `Quick
      test_tcp_transport;
    Alcotest.test_case "server: garbage, oversize, mid-frame disconnect"
      `Quick test_hostile_lines;
    Alcotest.test_case "server: idle deadline closes only the idler" `Quick
      test_idle_deadline;
    Alcotest.test_case "server: protocol fuzz never crashes" `Quick
      test_protocol_fuzz;
    Alcotest.test_case "server: sweep verb matches sweep.exe bytes" `Quick
      test_sweep_verb;
    Alcotest.test_case "server: idempotent retries answered once" `Quick
      test_idempotency_dedup;
    Alcotest.test_case "server: journal survives restart, exactly-once"
      `Quick test_journal_crash_replay;
    Alcotest.test_case "server: unreadable journaled checkpoint reruns the job"
      `Quick test_journal_old_checkpoint_reruns;
    Alcotest.test_case "cluster: rendezvous routing is minimal-disruption"
      `Quick test_rendezvous_routing;
    Alcotest.test_case "cluster: backoff schedule deterministic and bounded"
      `Quick test_backoff_property;
    Alcotest.test_case "cluster: failover to the live member, bit-identical"
      `Quick test_cluster_failover;
    Alcotest.test_case "server: thrashed LRU conserves counters" `Quick
      test_lru_conservation;
    Alcotest.test_case "server: migrate verb state taxonomy" `Quick
      test_migrate_states;
    Alcotest.test_case "cluster: live migration resumes bit-identically"
      `Quick test_migrate_between_servers;
    Alcotest.test_case "server: a busy TCP port leaves no socket file"
      `Quick test_busy_tcp_port_leaves_no_socket;
    Alcotest.test_case "server: job_of_run resolves a request" `Quick
      test_job_of_run;
    Alcotest.test_case "server: fair dispatch overtakes a backlog" `Quick
      test_fair_dispatch;
    Alcotest.test_case "server: disconnect keeps keyed queued jobs only"
      `Quick test_disconnect_queued;
    Alcotest.test_case "server: spent drain budget dumps and preempts" `Quick
      test_drain_budget;
    Alcotest.test_case "server: a dumped key is forgotten mid-drain" `Quick
      test_drain_forgets_dumped_keys;
    Alcotest.test_case "server: cancel of a queued key answers its twin"
      `Quick test_cancel_queued_twin;
    Alcotest.test_case "server: every migrate caller is answered" `Quick
      test_migrate_twice;
    Alcotest.test_case "line reader: any chunking frames the same lines"
      `Quick test_line_chunking;
    Alcotest.test_case "line reader: a 64 MiB line frames in linear time"
      `Quick test_long_line_linear;
    Alcotest.test_case "server: cached-hit response bytes match recorded MD5"
      `Quick test_served_bytes_pinned;
    Alcotest.test_case "client: a second close leaves a reused fd alone"
      `Quick test_client_close_once;
    Alcotest.test_case "server: tampered checkpoint error names the field"
      `Quick test_served_tampered_restore;
    Alcotest.test_case "client: an oversize request gets the rejection"
      `Quick (test_oversize_request_answered ~tcp:false);
    Alcotest.test_case "client: an oversize TCP request gets the rejection"
      `Quick (test_oversize_request_answered ~tcp:true);
    Alcotest.test_case "server: config_of_run refuses a zero watchdog"
      `Quick test_config_of_run_checks;
    Alcotest.test_case "server: a refused config leaves the socket path alone"
      `Quick test_refused_config_keeps_socket_path;
  ]
