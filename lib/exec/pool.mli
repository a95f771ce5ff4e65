(** Domain-parallel work pool with deterministic result collection.

    The paper's claims are statements about {e sweeps} — interval vs.
    waves, balancing vs. buffer budget, PE count vs. throughput — and
    every experiment in such a sweep is independent.  [Pool] fans a list
    of work items over OCaml 5 domains and returns the results {e in
    submission order}, so the merged output of a parallel run is
    byte-identical to a sequential one (tested in [test_exec.ml]).

    Sizing: [~jobs] if given, else the [EXEC_JOBS] environment variable,
    else {!Domain.recommended_domain_count}.  [jobs <= 1] is the
    sequential fallback — no domains are spawned at all, which is also
    the escape hatch on runtimes where spawning fails (a failed spawn
    degrades to fewer workers rather than failing the map).

    Work items must not share mutable state.  A {!Run_config.t} is
    plain values apart from its tracer, so give each run its own
    tracer; each engine run builds its own sanitizer, and the compiler
    and engines keep no global state. *)

type error = {
  index : int;  (** submission index of the failed item *)
  message : string;  (** [Printexc.to_string] of the exception *)
  backtrace : string;
}
(** One item's failure, isolated: other items still complete. *)

val default_jobs : unit -> int
(** [EXEC_JOBS] if set to a positive integer, else
    [Domain.recommended_domain_count ()]. *)

val map_result : ?jobs:int -> ('a -> 'b) -> 'a list -> ('b, error) result list
(** Apply [f] to every item, fanning across [jobs] workers (the calling
    domain participates).  Results are in submission order; an item that
    raises yields [Error] without disturbing the others. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** As {!map_result} but re-raises the {e first} failure (by submission
    order, deterministically) after all items have finished. *)

exception Job_failed of error
(** What {!map} raises; carries the submission index and the original
    exception rendered to a string (exceptions cannot safely cross
    domain boundaries in general). *)

val timed : (unit -> 'a) -> 'a * float
(** Run a thunk and return its wall-clock seconds alongside the result
    — every parallel runner prints this so speedups are measured, not
    assumed. *)

(** {2 Persistent pool}

    [map_result] spins domains up and down per batch, which is fine for
    sweeps but wrong for a long-lived service: dfserve keeps one pool
    for its whole lifetime and feeds it jobs as requests arrive.  Jobs
    are handed out in submission order; a job can be cancelled while it
    is still queued (a running domain cannot be interrupted — preemption
    of long simulations happens above this layer, at checkpoint slice
    boundaries). *)

type t
(** A set of worker domains consuming a shared job queue. *)

type failure = { message : string; backtrace : string }

type 'a outcome =
  | Done of 'a
  | Failed of failure  (** the thunk raised; rendered like {!error} *)
  | Cancelled  (** cancelled while queued, or pool shut down first *)

type 'a ticket
(** Handle for one submitted job. *)

val create : ?workers:int -> unit -> t
(** Spawn [workers] domains (default {!default_jobs}).  A runtime that
    refuses to spawn leaves fewer workers; with zero, {!submit} runs
    thunks synchronously.  @raise Invalid_argument if [workers < 1]. *)

val workers : t -> int
(** Actual worker count (at least 1, counting the synchronous
    fallback). *)

val submit : t -> (unit -> 'a) -> 'a ticket
(** Enqueue a thunk.  Thunks must not share mutable state, as with
    {!map_result}.  After {!shutdown} the ticket settles [Cancelled]
    without running. *)

val cancel : 'a ticket -> bool
(** [true] iff the job was still queued and has been removed — it will
    never run.  [false] once running or settled: a domain mid-job
    cannot be interrupted from outside. *)

val await : 'a ticket -> 'a outcome
(** Block until the job settles. *)

val shutdown : t -> unit
(** Cancel everything still queued, let running jobs finish, and join
    all worker domains.  Idempotent. *)
