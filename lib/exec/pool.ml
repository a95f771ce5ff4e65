type error = { index : int; message : string; backtrace : string }

exception Job_failed of error

let default_jobs () =
  match Sys.getenv_opt "EXEC_JOBS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | _ -> invalid_arg (Printf.sprintf "EXEC_JOBS=%s: expected a positive integer" s))
  | None -> Domain.recommended_domain_count ()

let map_result ?jobs f xs =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  if jobs < 1 then invalid_arg "Pool.map_result: jobs < 1";
  let arr = Array.of_list xs in
  let n = Array.length arr in
  let out = Array.make n None in
  let run_one i =
    out.(i) <-
      Some
        (match f arr.(i) with
        | v -> Ok v
        | exception e ->
          let backtrace = Printexc.get_backtrace () in
          Error { index = i; message = Printexc.to_string e; backtrace })
  in
  let workers = min jobs n in
  if workers <= 1 then
    for i = 0 to n - 1 do
      run_one i
    done
  else begin
    let next = Atomic.make 0 in
    let rec drain () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        run_one i;
        drain ()
      end
    in
    (* spawn [workers - 1] helpers; the calling domain drains too.  A
       runtime that refuses to spawn (domain limit) just leaves us with
       fewer helpers — the map still completes. *)
    let helpers = ref [] in
    (try
       for _ = 2 to workers do
         helpers := Domain.spawn drain :: !helpers
       done
     with _ -> ());
    drain ();
    List.iter Domain.join !helpers
  end;
  Array.to_list
    (Array.map
       (function
         | Some r -> r
         | None -> assert false (* every index was drained *))
       out)

let map ?jobs f xs =
  let results = map_result ?jobs f xs in
  (* explicit recursion: the first error by submission order must win,
     and List.map's application order is unspecified *)
  let rec go = function
    | [] -> []
    | Ok v :: rest -> v :: go rest
    | Error e :: _ -> raise (Job_failed e)
  in
  go results

let timed f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

(* ---------------- persistent pool ---------------- *)

type failure = { message : string; backtrace : string }
type 'a outcome = Done of 'a | Failed of failure | Cancelled

(* A queue entry is the existential view of a ticket: [start] flips the
   ticket to Running (called under the pool lock), [work] runs the thunk
   and settles the ticket (called with the lock released).  [live] is
   cleared by [cancel] so workers skip dead entries cheaply instead of
   splicing the queue. *)
type entry = {
  mutable live : bool;
  start : unit -> unit;  (* flip the ticket to Running; call under lock *)
  abort : unit -> unit;  (* settle the ticket Cancelled; call under lock *)
  work : unit -> unit;  (* run and settle; call with the lock released *)
}

type t = {
  lock : Mutex.t;
  changed : Condition.t;  (* new work, a settled ticket, or shutdown *)
  pending : entry Queue.t;
  mutable stopping : bool;
  mutable domains : unit Domain.t list;
  worker_count : int;
}

type 'a state = Queued | Running | Settled of 'a outcome

type 'a ticket = {
  pool : t;
  mutable state : 'a state;
  mutable entry : entry option;  (* Some while Queued *)
}

let worker_loop pool =
  let rec next () =
    Mutex.lock pool.lock;
    let rec take () =
      match Queue.take_opt pool.pending with
      | Some e when e.live ->
        e.start ();
        Mutex.unlock pool.lock;
        e.work ();
        next ()
      | Some _ -> take () (* cancelled while queued: skip *)
      | None ->
        if pool.stopping then Mutex.unlock pool.lock
        else begin
          Condition.wait pool.changed pool.lock;
          take ()
        end
    in
    take ()
  in
  next ()

let create ?workers () =
  let requested =
    match workers with
    | Some w when w >= 1 -> w
    | Some w -> invalid_arg (Printf.sprintf "Pool.create: workers = %d" w)
    | None -> default_jobs ()
  in
  let pool =
    { lock = Mutex.create ();
      changed = Condition.create ();
      pending = Queue.create ();
      stopping = false;
      domains = [];
      worker_count = requested }
  in
  (* a runtime that refuses to spawn just leaves fewer workers; with
     zero, [submit] degrades to running the thunk synchronously *)
  (try
     for _ = 1 to requested do
       pool.domains <- Domain.spawn (fun () -> worker_loop pool) :: pool.domains
     done
   with _ -> ());
  pool

let workers pool = max 1 (List.length pool.domains)

let settle ticket outcome =
  Mutex.lock ticket.pool.lock;
  ticket.state <- Settled outcome;
  ticket.entry <- None;
  Condition.broadcast ticket.pool.changed;
  Mutex.unlock ticket.pool.lock

let run_thunk f =
  match f () with
  | v -> Done v
  | exception e ->
    let backtrace = Printexc.get_backtrace () in
    Failed { message = Printexc.to_string e; backtrace }

let submit pool f =
  let ticket = { pool; state = Queued; entry = None } in
  Mutex.lock pool.lock;
  let stopping = pool.stopping in
  let no_workers = pool.domains = [] in
  Mutex.unlock pool.lock;
  if stopping then begin
    ticket.state <- Settled Cancelled;
    ticket
  end
  else if no_workers then begin
    (* no worker domains could be spawned: synchronous fallback keeps
       the API total *)
    ticket.state <- Running;
    ticket.state <- Settled (run_thunk f);
    ticket
  end
  else begin
    let entry =
      { live = true;
        start = (fun () -> ticket.state <- Running);
        abort =
          (fun () ->
            ticket.state <- Settled Cancelled;
            ticket.entry <- None);
        work = (fun () -> settle ticket (run_thunk f)) }
    in
    ticket.entry <- Some entry;
    Mutex.lock pool.lock;
    if pool.stopping then begin
      ticket.state <- Settled Cancelled;
      ticket.entry <- None;
      Mutex.unlock pool.lock
    end
    else begin
      Queue.add entry pool.pending;
      Condition.broadcast pool.changed;
      Mutex.unlock pool.lock
    end;
    ticket
  end

let cancel ticket =
  Mutex.lock ticket.pool.lock;
  let removed =
    match (ticket.state, ticket.entry) with
    | Queued, Some e ->
      e.live <- false;
      ticket.state <- Settled Cancelled;
      ticket.entry <- None;
      Condition.broadcast ticket.pool.changed;
      true
    | _ -> false
  in
  Mutex.unlock ticket.pool.lock;
  removed

let await ticket =
  Mutex.lock ticket.pool.lock;
  let rec wait () =
    match ticket.state with
    | Settled o ->
      Mutex.unlock ticket.pool.lock;
      o
    | _ ->
      Condition.wait ticket.pool.changed ticket.pool.lock;
      wait ()
  in
  wait ()

let shutdown pool =
  Mutex.lock pool.lock;
  pool.stopping <- true;
  (* queued-but-unstarted entries never run; settle them Cancelled so
     their [await] callers don't hang.  Running jobs finish normally —
     domains cannot be killed — and the joins below wait for them. *)
  Queue.iter
    (fun e ->
      if e.live then begin
        e.live <- false;
        e.abort ()
      end)
    pool.pending;
  Queue.clear pool.pending;
  Condition.broadcast pool.changed;
  Mutex.unlock pool.lock;
  List.iter Domain.join pool.domains;
  pool.domains <- []
