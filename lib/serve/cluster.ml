module J = Obs.Json
module P = Protocol
module Prng = Fault.Prng

(* A federation of dfserve processes is a static member list plus three
   pure-ish mechanisms layered on the existing client:

   - rendezvous (highest-random-weight) hashing on the program's cache
     key routes same-program requests to the member whose compiled-
     program cache already holds the entry, and — the property plain
     mod-N hashing lacks — removing a member never reorders the
     survivors, so failover lands every orphaned key on one stable
     next-best member instead of reshuffling the whole ring;

   - a per-member up/suspect/down health state machine fed by stats
     probes and by submit outcomes;

   - failover submission: walk the rendezvous order, resilient_rpc per
     member, move on when a member is unreachable.  Requests carrying
     an idempotency key stay exactly-once across the walk because each
     member deduplicates and recomputation is deterministic.  *)

type health = Up | Suspect | Down

let health_to_string = function
  | Up -> "up"
  | Suspect -> "suspect"
  | Down -> "down"

type member = { addr : string; mutable health : health; mutable fails : int }

type t = {
  members : member array;
  deadline : float;
  retry : Client.retry;
  mutable submits : int;
  mutable failovers : int;
}

let create ?(deadline = 30.0) ?(retry = Client.default_retry) addrs =
  if addrs = [] then invalid_arg "Cluster.create: no members";
  { members =
      Array.of_list
        (List.map (fun addr -> { addr; health = Up; fails = 0 }) addrs);
    deadline;
    retry;
    submits = 0;
    failovers = 0 }

let health t = Array.to_list (Array.map (fun m -> (m.addr, m.health)) t.members)
let failovers t = t.failovers
let submits t = t.submits

(* two consecutive failures demote a member all the way; any success
   restores it — a member that flaps pays with routing priority only
   while it is actually failing *)
let mark_up m =
  m.health <- Up;
  m.fails <- 0

let mark_failed m =
  m.fails <- m.fails + 1;
  m.health <- (if m.fails >= 2 then Down else Suspect)

(* ---------------- routing ---------------- *)

(* delegate to the replica layer's string-keyed hash (the bytes hashed
   are identical), so client-side routing and server-side replica
   placement can never drift apart *)
let score ~key addr = Replica.score ~key:(string_of_int key) addr

let rendezvous_order ~key addrs =
  Replica.rendezvous_order ~key:(string_of_int key) addrs

let routing_key program =
  match Server.program_key program with
  | key -> key
  | exception Not_found -> 0 (* unknown kernel: any member will reject it *)

(* candidates for one submission: rendezvous order, with members known
   to be down demoted to last-resort retries rather than dropped — a
   wrong "down" verdict must never make a reachable answer unreachable *)
let candidates t ~key =
  let by_addr addr =
    (* member arrays are tiny (a handful of replicas); linear is fine *)
    let rec go i = if t.members.(i).addr = addr then t.members.(i) else go (i + 1) in
    go 0
  in
  let ordered =
    List.map by_addr
      (rendezvous_order ~key
         (Array.to_list (Array.map (fun m -> m.addr) t.members)))
  in
  let up, down = List.partition (fun m -> m.health <> Down) ordered in
  up @ down

(* ---------------- health probes ---------------- *)

let probe ?(deadline = 2.0) t =
  Array.to_list
    (Array.map
       (fun m ->
         let outcome =
           match Client.connect ~retries:0 ~deadline m.addr with
           | exception e -> Error (Printexc.to_string e)
           | c -> (
             match
               Fun.protect
                 ~finally:(fun () -> Client.close c)
                 (fun () -> Client.rpc c P.Stats)
             with
             | resp when P.response_ok resp -> Ok resp
             | resp -> Error (J.to_string resp)
             | exception e -> Error (Printexc.to_string e))
         in
         (match outcome with Ok _ -> mark_up m | Error _ -> mark_failed m);
         (m.addr, outcome))
       t.members)

(* ---------------- failover submission ---------------- *)

(* each member gets its own jitter stream, so two members' retry
   schedules never lock step *)
let member_retry t m =
  { t.retry with
    Client.retry_seed =
      Prng.int_of_hash
        (Prng.mix t.retry.Client.retry_seed [ Hashtbl.hash m.addr ])
        1_000_000_000 }

let submit t ~key req =
  t.submits <- t.submits + 1;
  let rec go tried = function
    | [] ->
      failwith
        (Printf.sprintf "Cluster.submit: all %d members failed (%s)"
           (Array.length t.members)
           (String.concat "; " (List.rev tried)))
    | m :: rest -> (
      match
        Client.resilient_rpc ~deadline:t.deadline ~retry:(member_retry t m)
          ~addr:m.addr req
      with
      | resp, _ ->
        mark_up m;
        (resp, m.addr)
      | exception Failure e ->
        mark_failed m;
        if rest <> [] then t.failovers <- t.failovers + 1;
        go ((m.addr ^ ": " ^ e) :: tried) rest)
  in
  go [] (candidates t ~key)

(* ---------------- live migration ---------------- *)

(* Drive one job from [source] to [target].  The source's migrate verb
   tells us what there is to move; every state converges to an answer:

     migrated     resume the shipped checkpoint at the target
     queued       the job never ran at the source; run it at the target
     done         the source already holds the recorded answer
     running      a graph-engine job; un-preemptible, ride it out
     not_found    nothing admitted under the key; fresh run at target
     (source dead) the journal twin: resubmit under the same idem key

   [run] must carry the idem key the job was admitted under — it is
   both the migrate handle and the exactly-once guarantee for every
   fallback resubmission. *)
let migrate ?(deadline = 30.0) ?(retry = Client.default_retry) ~source ~target
    (run : P.run) =
  (match run.P.idem with
  | Some _ -> ()
  | None -> invalid_arg "Cluster.migrate: run carries no idem key");
  let idem = Option.get run.P.idem in
  let rpc addr req = fst (Client.resilient_rpc ~deadline ~retry ~addr req) in
  let simulate addr r = rpc addr (P.Simulate r) in
  (* prefer the request document the source hands back (it may carry
     journal state we do not have), falling back to our own copy *)
  let returned_run resp =
    match P.request_of_json (J.member "request" resp) with
    | Ok (_, P.Simulate r) -> r
    | Ok _ | Error _ -> run
  in
  match rpc source (P.Migrate idem) with
  | exception Failure _ ->
    (* the source is unreachable; its journal still owns the admission,
       so the target's run and any source-side replay are deterministic
       twins — same key, same bytes *)
    (simulate target run, "source_dead")
  | resp when not (P.response_ok resp) -> (simulate target run, "refused")
  | resp -> (
    match Option.value ~default:"" (J.get_string (J.member "state" resp)) with
    | "migrated" ->
      let r = returned_run resp in
      ( simulate target { r with P.restore = Some (J.member "checkpoint" resp) },
        "migrated" )
    | "queued" -> (simulate target (returned_run resp), "requeued")
    | "done" -> (J.member "response" resp, "done")
    | "running" ->
      (* not preemptible at the source: attach to the in-flight run *)
      (simulate source run, "ran_at_source")
    | _ -> (simulate target run, "fresh"))
