module J = Obs.Json
module P = Protocol
module FP = Fault.Fault_plan
module K = Kernels

type report = {
  checked : int;
  failures : string list;
  cache_hits : int;
  cache_misses : int;
  churned : int;
  retried : int;
  shed : int;
  deduped : int;
  elapsed_s : float;
}

(* One deterministic scenario: a request plus nothing else — the
   expected result is recomputed standalone from the same request. *)
let scenario ~seed ~client ~index =
  let kernels = List.map (fun k -> k.K.name) K.all in
  let st = Random.State.make [| seed; client; index |] in
  let pick xs = List.nth xs (Random.State.int st (List.length xs)) in
  (* a small kernel pool per client keeps the cache hot on purpose *)
  let name = List.nth kernels ((client + Random.State.int st 3) mod List.length kernels) in
  let program = P.Kernel { name; size = 8 } in
  let base = P.default_run program in
  let base = { base with P.waves = 2; sanitize = true } in
  let fault_seed = 100 + (client * 37) + index in
  match pick [ `Clean_sim; `Delay_sim; `Clean_machine; `Delay_machine; `Heal ] with
  | `Clean_sim -> base
  | `Delay_sim ->
    { base with
      P.fault = Some (FP.to_string { FP.none with FP.delay_prob = 0.2; seed = fault_seed }) }
  | `Clean_machine -> { base with P.engine = `Machine }
  | `Delay_machine ->
    { base with
      P.engine = `Machine;
      fault =
        Some
          (FP.to_string
             { FP.none with
               FP.delay_prob = 0.25;
               stall_prob = 0.05;
               seed = fault_seed });
      watchdog = P.Auto }
  | `Heal ->
    { base with
      P.engine = `Machine;
      fault =
        Some
          (FP.to_string
             { FP.none with
               FP.drop_prob = 0.02;
               corrupt_prob = 0.02;
               seed = fault_seed });
      recovery = Some (Recover.to_string Run_config.default_recovery);
      integrity = true;
      watchdog = P.Auto }

(* The standalone reference: the exact Exec.Job the server claims to be
   bit-identical to. *)
let standalone (r : P.run) =
  Result.bind (Server.compile_program r.P.program) (Server.job_of_run r)
  |> Result.map Exec.Job.run

(* Fields that must agree bit for bit between the served response and
   the standalone outcome.  cache_hit/key are server-side and excluded;
   metrics derive from the engine result, so they are compared too. *)
let compare_fields = [ "outputs"; "digest"; "end_time"; "quiescent"; "stall"; "violations"; "metrics" ]

let check_response ~label resp (expected : Exec.Outcome.t) =
  if not (P.response_ok resp) then
    [ Printf.sprintf "%s: server error %s" label (J.to_string resp) ]
  else
    let want = J.Obj (P.outcome_fields ~cache_hit:false ~key:0 expected) in
    List.concat_map
      (fun f ->
        let got = J.to_string (J.member f resp) in
        let exp = J.to_string (J.member f want) in
        if got = exp then []
        else
          [ Printf.sprintf "%s: %s differs\n  served:     %s\n  standalone: %s"
              label f got exp ])
      compare_fields

let client_session ~socket ~seed ~client ~jobs =
  let conn = Client.connect socket in
  Fun.protect
    ~finally:(fun () -> Client.close conn)
    (fun () ->
      (* pipeline everything, then await in order: responses may come
         back out of order and the stash must reassemble them *)
      let runs = List.init jobs (fun index -> scenario ~seed ~client ~index) in
      let ids = List.map (fun r -> Client.send conn (P.Simulate r)) runs in
      List.concat
        (List.map2
           (fun r id ->
             let label = Printf.sprintf "client %d job %d" client id in
             let resp = Client.await conn id in
             match standalone r with
             | Error e -> [ Printf.sprintf "%s: standalone failed: %s" label e ]
             | Ok expected -> check_response ~label resp expected)
           runs ids))

(* The churn phase: [churn] sequential short-lived connections, each
   one request against a tiny cache-hot scenario.  Every seventh goes
   through the hostile-wire stack — netfault + resilient_rpc + an
   idempotency key — and then re-sends the same key on a clean
   connection, which must answer from the record without re-running. *)
let churn_phase ~socket ~seed ~churn =
  let t0 = Unix.gettimeofday () in
  let failures = ref [] in
  let retried = ref 0 in
  let kernels = List.map (fun k -> k.K.name) K.all in
  let expected = Hashtbl.create 8 in
  let scenario_of i =
    let name = List.nth kernels (i mod min 3 (List.length kernels)) in
    let base = P.default_run (P.Kernel { name; size = 4 }) in
    { base with P.waves = 1 }
  in
  let expect r =
    let key = J.to_string (P.request_to_json ~id:0 (P.Simulate r)) in
    match Hashtbl.find_opt expected key with
    | Some o -> o
    | None ->
      let o = standalone r in
      Hashtbl.add expected key o;
      o
  in
  for i = 0 to churn - 1 do
    let r = scenario_of i in
    let label = Printf.sprintf "churn %d" i in
    let check resp =
      match expect r with
      | Error e ->
        failures :=
          Printf.sprintf "%s: standalone failed: %s" label e :: !failures
      | Ok o -> failures := check_response ~label resp o @ !failures
    in
    if i mod 7 = 3 then begin
      let r = { r with P.idem = Some (Printf.sprintf "churn-%d-%d" seed i) } in
      let nf =
        { (Netfault.hostile ~seed:(seed + i)) with Netfault.stall_s = 0.01 }
      in
      let retry =
        { Client.attempts = 12;
          base_delay = 0.01;
          max_delay = 0.1;
          retry_seed = seed + i }
      in
      match
        Client.resilient_rpc ~netfault:nf ~deadline:10.0 ~retry ~addr:socket
          (P.Simulate r)
      with
      | resp, attempts ->
        retried := !retried + attempts - 1;
        check resp;
        (* at-least-once retry of a finished request: answered from the
           record, bit-identically *)
        let dup = Client.connect socket in
        Fun.protect
          ~finally:(fun () -> Client.close dup)
          (fun () -> check (Client.rpc dup (P.Simulate r)))
      | exception e ->
        failures :=
          Printf.sprintf "%s: %s" label (Printexc.to_string e) :: !failures
    end
    else
      match
        let conn = Client.connect socket in
        Fun.protect
          ~finally:(fun () -> Client.close conn)
          (fun () -> Client.rpc conn (P.Simulate r))
      with
      | resp -> check resp
      | exception e ->
        failures :=
          Printf.sprintf "%s: %s" label (Printexc.to_string e) :: !failures
  done;
  (List.rev !failures, !retried, Unix.gettimeofday () -. t0)

let run ?(clients = 4) ?(jobs_per_client = 6) ?(workers = 3) ?(seed = 1)
    ?(churn = 0) ?log () =
  let socket =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dfserve-selftest-%d.sock" (Unix.getpid ()))
  in
  (* the soak runs over a journal on a lying disk: seeded torn writes,
     ENOSPC, bit rot and slow syncs on every append.  Bit-identity of
     the served responses must hold anyway — append failures degrade
     durability, never answers. *)
  let journal =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dfserve-selftest-%d.wal" (Unix.getpid ()))
  in
  (try Sys.remove journal with Sys_error _ -> ());
  let config =
    { (Server.default_config ~socket_path:socket) with
      Server.workers;
      max_pending = clients * jobs_per_client + 8;
      journal_path = Some journal;
      diskfault = Some (Diskfault.hostile ~seed);
      log }
  in
  let server = Server.create config in
  let server_domain = Domain.spawn (fun () -> Server.serve server) in
  let finish () =
    (try
       let conn = Client.connect socket in
       ignore (Client.rpc conn P.Shutdown);
       Client.close conn
     with _ -> ());
    Domain.join server_domain;
    try Sys.remove journal with Sys_error _ -> ()
  in
  Fun.protect ~finally:finish (fun () ->
      let sessions =
        List.init clients (fun client ->
            Domain.spawn (fun () ->
                try client_session ~socket ~seed ~client ~jobs:jobs_per_client
                with e ->
                  [ Printf.sprintf "client %d died: %s" client
                      (Printexc.to_string e) ]))
      in
      let failures = List.concat_map Domain.join sessions in
      let churn_failures, retried, elapsed_s =
        if churn > 0 then churn_phase ~socket ~seed ~churn
        else ([], 0, 0.0)
      in
      let conn = Client.connect socket in
      let stats = Client.rpc conn P.Stats in
      Client.close conn;
      let stat f = Option.value ~default:0 (J.get_int (J.member f stats)) in
      { checked =
          (clients * jobs_per_client)
          + churn + ((churn + 3) / 7) (* faulted churn jobs check twice *);
        failures = failures @ churn_failures;
        cache_hits = stat "cache_hits";
        cache_misses = stat "cache_misses";
        churned = churn;
        retried;
        shed = stat "rejections";
        deduped = stat "deduped";
        elapsed_s })
