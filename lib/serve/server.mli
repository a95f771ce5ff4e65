(** The dfserve engine: a persistent compile-and-simulate service.

    One event-loop thread owns the listening sockets (a Unix-domain
    socket, plus an optional TCP listener sharing the same accept
    loop), a compiled-program {!Lru} cache and the per-client request
    queues; an {!Exec.Pool} of worker domains runs the simulations.
    The loop multiplexes with [Unix.select] over the listeners, every
    client socket (nonblocking, with buffered writes) and a self-pipe
    that workers write one byte to when a job finishes, so completions
    are delivered promptly without polling.

    {b Fair queueing}: admitted jobs wait in per-client FIFO queues and
    are dispatched round-robin across clients, at most [workers] in
    flight, so one chatty client cannot starve the others and the
    pool's internal FIFO never reorders across clients.  Admission is
    bounded: when [max_pending] jobs are already waiting, new simulate
    requests are rejected with a structured [overloaded] error instead
    of queueing without bound.

    {b Hostile transport}: a request line over [max_line] bytes —
    complete or still accumulating — draws a structured [malformed]
    error and a close, so a slowloris or a garbage firehose cannot grow
    [rbuf] without bound; unparseable-but-bounded lines draw
    [malformed] and leave the connection up.  Connections idle past
    [idle_timeout] with no work in flight are closed with a best-effort
    [deadline] error; peers that stop reading their responses for
    [write_timeout] are closed.  No hostile connection can crash the
    loop or stall other clients.

    {b Job lifecycle}: every simulate or sweep job is admitted, queued,
    dispatched and answered once — or, still queued, withdrawn unrun.
    Live simulate requests and journal replay share one admission core
    (compile through the cache, {!job_of_run}, decode the checkpoint to
    resume from, journal each slice's checkpoint, record the key as
    pending, enqueue); a live request first passes the dedup check and
    the shutdown/overload refusal.  Everyone owed a job's outcome waits
    in one list on it: the owner, idempotent twins (retries of its key)
    and every migrate caller.  One function answers them all — the
    response under each request id, or the migrate envelope (checkpoint
    and request when the job was preempted, else the final response) —
    whether the job finished, was preempted, or left the queue through
    the one withdraw ([cancel], [migrate] of a queued job, a spent drain
    budget, or the close of a keyless job's connection), which also
    forgets its key.  A connection still owed an answer is never reaped
    as idle, and shutdown closes the sockets only once the last answers
    are written (or their readers blew [write_timeout]).

    {b Durability}: with a [journal_path], every admitted simulate
    request carrying an idempotency key is recorded in a write-ahead
    {!Journal} before it runs, machine jobs append their slice-boundary
    checkpoints as they advance, and each final response is recorded
    before it is sent.  On restart the journal seeds the idempotency
    cache (retried completed requests answer bit-identically from the
    record) and incomplete admissions are re-run — machine jobs
    resuming from their last recorded checkpoint.  A preempted or
    withdrawn job records nothing, so its admission stays pending for
    the next generation.

    {b Bit-identity}: the server compiles through the cache, resolves
    the request with {!job_of_run} and runs that job exactly as
    {!Exec.Job.run} would — graph-engine jobs literally call
    [Exec.Job.run]; machine jobs run the same configuration through the
    resumable {!Machine.Machine_engine} in bounded [slice]-length
    steps, which the engine guarantees is bit-identical to a one-shot
    run.  Slicing is what makes long machine runs preemptible: a cancel
    or shutdown takes effect at the next slice boundary and the
    response carries a restorable {!Recover.Checkpoint} document. *)

type config = {
  socket_path : string;
  tcp : (string * int) option;
      (** also listen on this TCP host/port (port 0 = ephemeral;
          {!tcp_port} reports the bound port) *)
  workers : int;  (** simulation worker domains *)
  max_pending : int;  (** admission bound on jobs waiting to dispatch *)
  cache_capacity : int;  (** compiled-program cache entries *)
  slice : int;
      (** machine-engine preemption granularity, simulation-time units *)
  max_line : int;  (** request-line byte cap; over it = malformed + close *)
  idle_timeout : float option;
      (** close connections idle this long with nothing in flight *)
  write_timeout : float;
      (** close connections whose pending responses make no progress
          this long *)
  drain_timeout : float;
      (** shutdown drains admitted jobs for at most this long before
          dumping the queue and preempting *)
  journal_path : string option;  (** write-ahead job journal *)
  journal_retain : int option;
      (** compact the journal on startup, keeping only this many of the
          newest completed responses (plus every pending admission);
          [None] keeps the full history *)
  replicas : int;
      (** R: total journal copies per record, counting the local append
          — each record streams to the R−1 rendezvous-ranked peers (see
          {!Replica}); only meaningful with [cluster] *)
  cluster : string option;
      (** membership spec ({!Runspec.members_of_string}: [a,b,c] or
          [@FILE]); the [@FILE] form is re-read on {!request_reload}
          (the SIGHUP path).  Requires [self_addr] and [journal_path]. *)
  self_addr : string option;
      (** this member's own address as it appears in the member list *)
  fsync : bool option;
      (** sync Admit/Done appends to the platter, not just the OS
          ([None] = on iff clustered): an acknowledged record then
          survives power loss, not just SIGKILL *)
  diskfault : Diskfault.spec option;
      (** seeded fault injection on every journal append *)
  log : out_channel option;  (** one line per lifecycle event *)
}

val default_config : socket_path:string -> config
(** [workers = Exec.Pool.default_jobs ()], [max_pending = 64],
    [cache_capacity = 32], [slice = 5000], no TCP, [max_line] = 1 MiB,
    [idle_timeout] = 60 s, [write_timeout] = 10 s, [drain_timeout] =
    30 s, no journal, unbounded journal retention, [replicas = 2] but
    no cluster, auto fsync, no disk faults, no log. *)

type t

val create : config -> t
(** Check the configuration, then bind and listen (replacing any stale
    socket file), open and replay the journal if configured, and spawn
    the worker pool.  A cluster member whose journal is missing or
    damaged first rebuilds it from its peers' replicas
    ({!Replica.recover_from_peers}): the dedup window and every pending
    admission survive the loss of the disk, machine jobs resuming from
    their replicated checkpoints.  A refused configuration leaves the
    socket path untouched; a failure after the bind removes the socket.
    @raise Unix.Unix_error when a path or port is unusable.
    @raise Invalid_argument on a field out of range or an inconsistent
    cluster config (no [self_addr], no journal, self not in the member
    list). *)

val tcp_port : t -> int option
(** The bound TCP port, when a [tcp] listener was configured — the way
    to learn an ephemeral (port 0) binding. *)

val serve : t -> unit
(** Run the event loop until a [shutdown] request arrives, then drain:
    admission stops (new work is answered [shutting_down]) while
    admitted jobs run to completion; after [drain_timeout] the queue is
    dumped (its jobs and their twins answered [shutting_down]) and
    running machine jobs are preempted at their next slice.  Once every
    in-flight job has been answered and every answer written — or its
    reader closed for stalling past [write_timeout] — the sockets are
    closed, the Unix socket file removed, the journal closed and the
    pool joined. *)

val run : config -> unit
(** [serve (create config)]. *)

val request_reload : t -> unit
(** Ask the event loop to re-read the [@FILE] membership list at its
    next iteration (async-signal-safe: a flag plus a self-pipe wakeup —
    [bin/dfserve] calls this from its SIGHUP handler).  Joins and
    leaves re-home the rendezvous targets, and the live idempotency
    table is re-pushed at the new target set so entries the change
    left under-replicated regain their quorum. *)

val config_of_run :
  Protocol.run -> (Run_config.t * Machine.Arch.t, string) result
(** The engine configuration of a simulate request (fault plan,
    recovery policy, integrity, watchdog, sanitize, max-time) and its
    machine architecture.  Machine requests default
    [max_time] to {!Machine.Machine_engine.default_max_time}, matching
    {!Fault_diff.machine}.  [Error] names the bad fault or recovery
    spec, or is {!Run_config.check}'s refusal of the configuration
    built (a zero watchdog, say). *)

val job_of_run :
  ?arena:Arena.t ->
  Protocol.run ->
  Compiler.Program_compile.compiled ->
  (Exec.Job.t, string) result
(** The one resolver from a request to a runnable job: {!config_of_run}
    plus the program's inputs — a kernel's {!Kernels.seeded_inputs},
    or waves synthesized with {!Runspec.synth_wave} from a source
    program's [input_seed] — fed through {!Compiler.Driver.feeds}.
    [compiled] must be the request's program compiled.  The server's
    admission and journal-replay paths, the selftest and [dfsim] all
    build their jobs here, so a served run and a standalone run of the
    same request are the same job.

    With [arena] — [compiled]'s graph lowered by {!Arena.build}, as a
    cache entry keeps it — the job is an {!Exec.Job.Arena_program} and
    runs that arena instead of lowering the graph again; without it, a
    [Graph_program].  Both give the same run.
    @raise Invalid_argument when [arena] was lowered from another
    graph. *)

val input_waves :
  Protocol.program ->
  Compiler.Program_compile.compiled ->
  (string * Dfg.Value.t list) list
(** One wave per array input of the compiled program, as {!job_of_run}
    feeds them.
    @raise Invalid_argument for a kernel name the library does not
    know. *)

val compile_program :
  Protocol.program -> (Compiler.Program_compile.compiled, string) result
(** Compile a request's program without the cache.  [Error] names an
    unknown kernel or the compile failure. *)

val subject_of_program :
  Protocol.program ->
  waves:int ->
  (Dfg.Graph.t * (string * Dfg.Value.t list) list * string, string) result
(** {!compile_program}, then the graph, full packet streams and name of
    the {!job_of_run} job of a default run of [waves] waves (the form
    the benchmark in [perfbench/] builds its standalone references
    from). *)

val program_key : Protocol.program -> int
(** The compiled-program cache key of a request's program — an FNV-1a
    checksum over the canonical source text plus scalar bindings.
    {!Cluster} rendezvous-hashes on it so same-program requests route
    to the member whose cache already holds the entry.
    @raise Not_found for a kernel name the library does not know. *)
