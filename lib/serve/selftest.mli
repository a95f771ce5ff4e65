(** Randomized soak of a live server: zero cross-request interference.

    Starts a real server on a private socket, fans [clients] concurrent
    client domains over it — each replaying a deterministic mix of
    clean, delay-faulted and recovery-healed jobs on both engines —
    and requires every served response to be {e bit-identical} to the
    same job run standalone through {!Exec.Job.run} in this process:
    same output packets (compared as wire JSON), same digest, end time,
    quiescence, stall text and violations.  A cache-hot workload by
    construction, so the compiled-program cache and fair queueing are
    exercised under real contention.

    With [churn > 0] a second phase hammers the server with that many
    {e sequential short-lived} connections (connect, one request,
    close).  Every seventh goes through the full hostile-wire stack —
    {!Netfault} faults on the request line, {!Client.resilient_rpc}
    retry with seeded backoff, an idempotency key — and then re-sends
    the same key on a clean connection, which must answer from the
    server's record bit-identically instead of re-running.

    This is what [dfserve --selftest] runs. *)

type report = {
  checked : int;  (** simulate responses verified *)
  failures : string list;  (** one line per mismatch, empty on success *)
  cache_hits : int;
  cache_misses : int;
  churned : int;  (** short-lived connections in the churn phase *)
  retried : int;  (** extra attempts the hostile-wire clients needed *)
  shed : int;  (** overloaded rejections the server reported *)
  deduped : int;  (** idempotent retries answered from the record *)
  elapsed_s : float;  (** churn-phase wall clock *)
}

val run :
  ?clients:int ->
  ?jobs_per_client:int ->
  ?workers:int ->
  ?seed:int ->
  ?churn:int ->
  ?log:out_channel ->
  unit ->
  report
(** Defaults: 4 clients × 6 jobs, 3 workers, seed 1, no churn. *)
