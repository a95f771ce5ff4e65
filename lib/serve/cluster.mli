(** Federated dfserve: replicated members, failover routing and live
    job migration.

    A cluster is a {e static} member list (no gossip, no elections) of
    independent dfserve processes, each with its own compiled-program
    cache and job journal.  The client side holds all the smarts:

    - {b Routing}: requests are placed by rendezvous
      (highest-random-weight) hashing on the program's compiled-program
      cache key ({!Server.program_key}), so repeated submissions of the
      same source land on the member whose cache already holds the
      compiled entry.  Rendezvous hashing's minimal-disruption property
      means a member's death re-homes only that member's keys — the
      survivors' relative order never changes.

    - {b Health}: each member carries an up/suspect/down verdict fed by
      {!probe} (a [stats] round-trip) and by {!submit} outcomes.  One
      failure makes a member suspect, two consecutive failures down;
      any success restores it.  Down members are demoted to
      last-resort position in the routing order, never dropped — a
      stale verdict must not make a reachable answer unreachable.

    - {b Failover}: {!submit} walks the routing order, trying each
      member with {!Client.resilient_rpc}; when a member is dead the
      request moves to the next replica.  Requests carrying an
      idempotency key stay exactly-once across the walk: each member's
      journal deduplicates, and recomputation is deterministic, so
      whichever member answers, the bytes are the same.

    - {b Migration}: {!migrate} drives a running machine job from one
      member to another through the server's [migrate] verb, which
      preempts the job at its next slice boundary and ships the
      {!Recover.Checkpoint} plus the original request over the wire.
      The target resumes the slice stream; because resumption is
      bit-identical to an uninterrupted run, a migrated job's outputs
      equal its unmigrated twin's. *)

type health = Up | Suspect | Down

val health_to_string : health -> string

type t

val create : ?deadline:float -> ?retry:Client.retry -> string list -> t
(** A cluster handle over the given member addresses (Unix-socket
    paths or [host:port]).  [deadline] (default 30 s) and [retry]
    (default {!Client.default_retry}) govern each {!submit} attempt;
    every member derives its own deterministic jitter stream from
    [retry.retry_seed].
    @raise Invalid_argument on an empty member list. *)

val health : t -> (string * health) list
(** Current verdict per member, in member-list order. *)

val failovers : t -> int
(** Submissions that had to move past at least one failed member. *)

val submits : t -> int

val routing_key : Protocol.program -> int
(** {!Server.program_key}, with unknown kernels mapped to a fixed key
    (any member will reject them identically). *)

val score : key:int -> string -> int
(** The rendezvous weight of one member for one routing key. *)

val rendezvous_order : key:int -> string list -> string list
(** Member addresses sorted by descending {!score} (ties broken by
    address), ignoring health.  Deterministic; removing an address
    never reorders the survivors. *)

val probe : ?deadline:float -> t -> (string * (Obs.Json.t, string) Result.t) list
(** One [stats] round-trip per member ([deadline] default 2 s, no
    connection retries), returning each member's stats document or
    failure text and updating its health verdict. *)

val submit : t -> key:int -> Protocol.request -> Obs.Json.t * string
(** Send the request to the first answering member in routing order
    (down members last), returning the response and the address that
    served it.  Members that fail are marked and skipped.
    @raise Failure when every member fails, with all the reasons. *)

val migrate :
  ?deadline:float ->
  ?retry:Client.retry ->
  source:string ->
  target:string ->
  Protocol.run ->
  Obs.Json.t * string
(** Move the job admitted under [run]'s idempotency key from [source]
    to [target], returning the final response plus how it was obtained:
    ["migrated"] (checkpoint shipped and resumed at [target]),
    ["requeued"] (never started at [source]; run at [target]),
    ["done"] (the source already held the answer), ["ran_at_source"]
    (a graph-engine job — not preemptible, attached to the in-flight
    run), ["source_dead"] / ["refused"] / ["fresh"] (fallback
    resubmission at [target] under the same key).  Every path converges
    to the same bytes the unmigrated run would have produced.
    @raise Invalid_argument when [run] carries no idem key.
    @raise Failure when the chosen fallback member cannot be reached. *)
