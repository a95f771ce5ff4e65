open Dfg

(** Wire format of the dfserve protocol.

    Transport is newline-delimited JSON over a Unix-domain stream
    socket: each request is one {!Obs.Json} object on one line, each
    response likewise.  Requests carry a connection-scoped [id]; the
    server answers every request exactly once, but {e not necessarily
    in order} — responses stream back as jobs finish, and a client that
    pipelines must match responses to requests by [id].

    Reals are carried as ["%h"] hex-float strings (the
    {!Recover.Checkpoint} convention), never as JSON numbers, so a
    served value is bit-identical to the standalone run's value —
    including NaN, infinities and -0.0.  [docs/SERVICE.md] is the prose
    spec. *)

(** {1 Requests} *)

type program =
  | Kernel of { name : string; size : int }
      (** a built-in kernel subject; input waves are
          {!Kernels.seeded_inputs}, as every standalone builder draws
          them, so a served run is bit-comparable to any standalone run
          of the same triple *)
  | Source of {
      source : string;  (** Val source text *)
      scalars : (string * Value.t) list;
      input_seed : int;
          (** seed for {!Runspec.synth_wave} input synthesis — the same
              convention [dfsim] uses, so served and local runs agree *)
    }

type watchdog_spec =
  | Off
  | Auto  (** {!Runspec.watchdog_for} over the request's fault spec *)
  | At of int

type run = {
  program : program;
  waves : int;
  engine : [ `Sim | `Machine ];
  n_pe : int option;  (** machine engine: PE count (default arch) *)
  stored : bool;  (** machine engine: [Stored] array policy *)
  fault : string option;  (** {!Fault.Fault_plan.of_string} spec *)
  fault_seed : int option;  (** overrides the spec's seed field *)
  recovery : string option;  (** {!Recover.of_string} policy spec *)
  integrity : bool;
  watchdog : watchdog_spec;
  max_time : int option;
  sanitize : bool;  (** {!Run_config.sanitize}: a fresh sanitizer per run *)
  idem : string option;
      (** idempotency key: the server journals the request under it and
          answers a retried request carrying the same key with the
          recorded response (or by attaching the retry to the run still
          in flight) instead of running it again — at-least-once
          clients get exactly-once results, across server restarts *)
  restore : Obs.Json.t option;
      (** a {!Recover.Checkpoint} document for this program: the
          machine engine restores it and resumes the slice stream
          instead of starting from scratch.  This is how a migrated job
          arrives at its new server — {!Cluster.migrate} ships the
          source server's preemption checkpoint here — and the engine
          guarantees the resumed run finishes bit-identically to an
          uninterrupted one.  Machine engine only. *)
}

val default_run : program -> run
(** One wave, sim engine, no faults, no watchdog, no sanitizer, no
    idempotency key. *)

type sweep = {
  sw_kernels : string list option;  (** [None] = the whole library *)
  sw_pes : int list;
  sw_waves : int list;
  sw_size : int;
}
(** A declarative kernel × PE-count × waves grid, served off the
    persistent pool; the response's [grid] document matches
    [bin/sweep.exe]'s output byte for byte. *)

type request =
  | Compile of program  (** compile (through the cache) but do not run *)
  | Simulate of run
  | Sweep of sweep
  | Cancel of int  (** a request [id] on the same connection *)
  | Migrate of string
      (** checkpoint the in-flight job admitted under this idempotency
          key and hand its request + checkpoint back to the caller, who
          resubmits them (as a [Simulate] with [restore]) to another
          server.  The reply is [{"state":...}]: ["migrated"] carries
          ["checkpoint"] and ["request"]; ["queued"] carries ["request"]
          (the job never ran here); ["done"] carries ["response"] (the
          recorded answer); ["running"] means a graph-engine job that
          cannot be preempted; ["not_found"] means no such key. *)
  | Replicate of { origin : string; entry : Obs.Json.t }
      (** append one {!Journal.entry} document on behalf of the member
          at [origin] (its listen address): the receiver stores it in a
          per-origin replica segment and acknowledges once the bytes
          are down.  This is the quorum-replication verb — see
          {!Replica}. *)
  | Recover of { origin : string }
      (** return every replica entry this member holds for [origin]
          (folded to its minimal form), as [{"entries":[...]}] — how a
          member that lost its disk rebuilds its journal from peers. *)
  | Members
      (** report the live membership view: self address, replication
          factor, and per-peer health. *)
  | Stats
  | Shutdown

val request_to_json : id:int -> request -> Obs.Json.t

val request_of_json : Obs.Json.t -> (int * request, string) result
(** [Error] is a human-readable reason; the server wraps it in a
    [bad_request] response. *)

(** {1 Responses} *)

type error_kind =
  | Bad_request  (** well-formed JSON with bad field values *)
  | Malformed
      (** not a protocol frame at all: unparseable bytes, or a request
          line over the server's [max_line] cap (the connection is
          closed after an over-cap rejection) *)
  | Compile_error  (** Val source rejected by the compiler *)
  | Unknown_verb
  | Overloaded  (** admission control: pending queue full *)
  | Cancelled
      (** the job was cancelled; a preempted machine run attaches its
          restorable checkpoint under ["checkpoint"] *)
  | Run_error  (** the engine raised; message carries the exception *)
  | Shutting_down
  | Deadline
      (** the connection sat idle past the server's read/idle deadline;
          sent best-effort just before the close *)
  | Replica_error
      (** a replication verb the server cannot honor: it is not a
          replicated cluster member, or the carried entry document is
          malformed *)

val error_kind_to_string : error_kind -> string
val error_kind_of_string : string -> error_kind option

val ok : id:int -> verb:string -> (string * Obs.Json.t) list -> Obs.Json.t
(** [{"id":id,"ok":true,"verb":verb,...fields}]. *)

val error :
  ?extra:(string * Obs.Json.t) list ->
  id:int ->
  error_kind ->
  string ->
  Obs.Json.t
(** [{"id":id,"ok":false,"error":kind,"message":msg,...extra}]. *)

val response_id : Obs.Json.t -> int option

val with_id : int -> Obs.Json.t -> Obs.Json.t
(** Re-address a recorded response to a new request id (dedup and
    journal replay). *)

val response_ok : Obs.Json.t -> bool
val response_error : Obs.Json.t -> (error_kind option * string) option
(** [Some (kind, message)] when the response is an error. *)

(** {1 Values and output streams on the wire} *)

val value_to_json : Value.t -> Obs.Json.t
(** {!Recover.Checkpoint.value_to_json}: [{"i":n}], [{"b":b}] or
    [{"r":"<%h literal>"}]. *)

val value_of_json : Obs.Json.t -> (Value.t, string) result
(** {!Recover.Checkpoint.value_of_json}. *)

val outputs_to_json : (string * (int * Value.t) list) list -> Obs.Json.t
(** [[{"name":s,"packets":[[t,value],...]},...]] — arrival order
    preserved. *)

val outputs_of_json :
  Obs.Json.t -> ((string * (int * Value.t) list) list, string) result

val outcome_fields :
  cache_hit:bool -> key:int -> Exec.Outcome.t -> (string * Obs.Json.t) list
(** The simulate-response payload: outputs, end time, quiescence, stall
    text, violations, the {!Integrity.digest_outputs} digest, the cache
    key and hit flag, and the run's metrics-registry snapshot. *)
