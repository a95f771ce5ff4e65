(** Client side of the dfserve protocol.

    A thin blocking connection: requests go out as NDJSON lines,
    responses come back the same way.  Because the server answers
    out of order (responses stream as jobs finish), the client stashes
    responses it reads while waiting for a specific id, so pipelining
    — send many, then await each — works naturally.

    The transport is either a Unix-domain socket path or TCP
    ([tcp:HOST:PORT]).  A connection may carry a [deadline] (every
    await must produce a line within that many seconds or raise
    {!Timeout}) and a {!Netfault.spec} (each outgoing request line may
    be deterministically dropped, truncated, garbage-prefixed or
    stalled — the hostile-network test harness).  {!resilient_rpc}
    layers seeded exponential-backoff retry with reconnect over all of
    that; paired with a server-side idempotency key it turns
    at-least-once retries into exactly-once results. *)

type addr = Unix_path of string | Tcp of string * int

val addr_of_string : string -> addr
(** [tcp:HOST:PORT] (via {!Runspec.hostport_of_string}) or a Unix
    socket path.  @raise Invalid_argument on a malformed [tcp:] form. *)

exception Timeout
(** The connection's [deadline] elapsed while awaiting a response. *)

exception Injected of string
(** The armed {!Netfault} consumed the request (drop or truncation);
    the connection has been closed.  Retry layers treat this exactly
    like a network failure. *)

type t

val connect :
  ?retries:int ->
  ?delay:float ->
  ?deadline:float ->
  ?netfault:Netfault.spec ->
  ?conn:int ->
  string ->
  t
(** Connect to [tcp:HOST:PORT] or a Unix socket path.  Retries
    [retries] times (default 50) every [delay] seconds (default 0.1)
    while the endpoint is absent or refusing — covers the race of a
    server still starting up (or being restarted mid-soak).
    [deadline] bounds every subsequent {!await}; [netfault] arms wire
    faults on outgoing requests, keyed by ([conn], op ordinal).
    @raise Unix.Unix_error when the retries are exhausted. *)

val close : t -> unit
(** Close the connection; closing it again does nothing. *)

val send : t -> Protocol.request -> int
(** Fire one request; returns the connection-scoped id assigned to it.
    EINTR-safe; a dead peer raises [Unix_error (EPIPE, _, _)] rather
    than killing the process (mains ignore SIGPIPE).
    @raise Injected when the armed netfault drops or truncates it. *)

val recv : t -> Obs.Json.t
(** Read the next response line, whatever its id.
    @raise Timeout when the connection deadline elapses first. *)

val await : t -> int -> Obs.Json.t
(** Block until the response for [id] arrives, stashing any other
    responses read along the way (including unsolicited ones, like a
    cancelled job's own response).
    @raise End_of_file if the server closes the connection first.
    @raise Timeout when the connection deadline elapses first. *)

val rpc : t -> Protocol.request -> Obs.Json.t
(** [send] then [await]. *)

val take_stashed : t -> int -> Obs.Json.t option
(** Remove a previously-stashed response by id (non-blocking). *)

val oneshot :
  ?retries:int ->
  ?deadline:float ->
  string ->
  Protocol.request ->
  (Obs.Json.t, string) result
(** Connect (default [retries = 0]: a refused endpoint fails
    immediately), issue one request, await its response, close.  Every
    transport failure — refused connect, deadline, peer close — comes
    back as [Error reason] instead of an exception, so event-loop
    callers (replication, probes) can treat a dead peer as data. *)

(** {1 Retry} *)

type retry = {
  attempts : int;
  base_delay : float;  (** first backoff, seconds *)
  max_delay : float;  (** backoff cap before jitter *)
  retry_seed : int;  (** jitter is a pure function of (seed, attempt) *)
}

val default_retry : retry
(** 10 attempts, 50 ms base, 1 s cap, seed 0. *)

val backoff_delay : retry -> attempt:int -> float
(** [min (base·2{^attempt}) cap], scaled by seeded jitter in
    [[0.5, 1.5)]. *)

val resilient_rpc :
  ?netfault:Netfault.spec ->
  ?deadline:float ->
  ?retry:retry ->
  addr:string ->
  Protocol.request ->
  Obs.Json.t * int
(** One request, delivered or bust: a fresh connection per attempt
    (netfault keyed by attempt number, so a fault that ate attempt [k]
    rolls new dice on [k+1]), [deadline] seconds per attempt (default
    30), reconnect-and-reissue on timeout, connection loss, injected
    wire faults and retryable server errors ([overloaded],
    [shutting_down], [deadline]), sleeping {!backoff_delay} between
    attempts.  Returns the response and the number of attempts used.
    Pair with {!Protocol.run}'s [idem] key to make the retries
    exactly-once.  @raise Failure when all attempts are exhausted. *)
