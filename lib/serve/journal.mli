(** Write-ahead job journal: dfserve's durability layer.

    Each admitted simulate request is recorded {e before} it runs
    ([Admit], carrying the client's idempotency key and the full
    request document), machine jobs record their latest slice-boundary
    checkpoint as they advance ([Progress]), and every final response
    is recorded when it is produced ([Done], before it is sent).  On
    restart the server {!replay}s the file: [Done] entries seed the
    idempotency-key response cache, so a client retrying a request the
    old server already answered gets the recorded response back
    bit-identically; [Admit] entries without a [Done] are re-run —
    machine jobs resuming from their last [Progress] checkpoint where
    one exists — and their completions are journaled as usual.  The
    combination turns at-least-once client retries into exactly-once
    results across server crashes.

    On disk every record is independently framed with the same
    magic+CRC+length discipline {!Recover.Checkpoint} uses for
    snapshot files ([dfjent <crc> <len>] + payload), so an append torn
    by SIGKILL corrupts only the tail: {!replay} returns the longest
    intact prefix of records and ignores everything after the first
    torn, truncated or bit-rotted frame.  {!replay_verified} also says
    whether such a refused tail exists — the trigger for rebuilding
    the journal from replication peers (see {!Replica}). *)

type entry =
  | Admit of { idem : string; request : Obs.Json.t }
      (** the simulate request as submitted (a [run_fields] object) *)
  | Progress of { idem : string; checkpoint : Obs.Json.t }
      (** latest resumable {!Recover.Checkpoint} document *)
  | Done of { idem : string; response : Obs.Json.t; digest : int option }
      (** the final response (id normalized to 0); [digest] for quick
          audits without decoding the response *)

val entry_to_json : entry -> Obs.Json.t
(** The record's payload document — what the [replicate] verb carries
    on the wire. *)

val entry_of_json : Obs.Json.t -> (entry, string) result

val frame : entry -> string
(** The exact bytes {!append} writes for one record. *)

val entries_of_string : string -> entry list
(** Longest intact record prefix of a journal image. *)

val replay : string -> entry list
(** [entries_of_string] over a file; a missing file is an empty
    journal. *)

type damage =
  | Intact  (** every byte of the file is part of an intact record *)
  | Damaged of { valid : int; size : int }
      (** replay accepted the first [valid] of [size] bytes and
          refused the rest (torn append, truncation or bit rot) *)

val replay_verified : string -> entry list * damage
(** {!replay}, plus whether the file held bytes the replay refused.  A
    missing file is [([], Intact)] — callers distinguishing "no journal
    yet" from "journal lost" should [Sys.file_exists] first. *)

type pending = {
  p_idem : string;
  p_request : Obs.Json.t;
  p_checkpoint : Obs.Json.t option;
}

type recovered = {
  completed : (string * Obs.Json.t) list;
  pending : pending list;
}

val fold : entry list -> recovered
(** Collapse a replayed entry list into the response cache and the
    re-run worklist, both in admission order.  A duplicate [Admit] for
    an idem key is ignored; a [Progress] that precedes its key's
    [Admit] is held and applied when the [Admit] arrives, and dropped if
    none does (a checkpoint without its request is useless); a [Done] for an
    unknown key still seeds the response cache — that is how a
    {!compact}ed journal (which stores completed work as bare [Done]
    records) survives the {e next} restart's replay.  The same
    tolerance makes recovery merges safe: concatenating a local replay
    with entries fetched from peers and folding yields the union, with
    duplicates collapsing harmlessly. *)

val entries_of_recovered : recovered -> entry list
(** The folded state as a minimal entry list — bare [Done] records for
    the dedup window, [Admit] (+ latest [Progress]) per pending job.
    [fold (entries_of_recovered r)] is [r].  This is what {!compact}
    writes and what disk-loss recovery rebuilds a journal from. *)

val write_atomic : path:string -> entry list -> unit
(** Replace the journal at [path] with exactly [entries], durably:
    write-temporary, fsync, rename, fsync the directory.  A crash
    mid-rewrite leaves either the old file or the new one. *)

val compact : path:string -> retain:int -> recovered
(** Rewrite the journal as its folded state: the newest [retain]
    completed responses plus every pending admission (with its latest
    checkpoint), dropping older [Done] records and all superseded
    history — so a long-lived server's restart replay is bounded by its
    dedup retention window instead of its lifetime.  Durably atomic via
    {!write_atomic} and framed like any other journal, so the compacted
    file keeps the torn-tail replay property (and sheds any refused
    tail, giving subsequent appends a clean frame boundary).  Returns
    the retained state, ready for {!fold}-style consumption.  A missing
    file compacts to an empty journal.
    @raise Invalid_argument when [retain] is negative. *)

(** {1 Appending} *)

type t

exception Disk_fault of string
(** An injected torn write: a prefix of the frame reached the disk
    before the simulated crash.  See {!Diskfault}. *)

val open_append : ?fsync:bool -> ?diskfault:Diskfault.spec -> string -> t
(** Open (creating if needed) for appending.  Thread-safe: the server
    appends from its event loop and from worker domains.  With
    [~fsync:true] (default false) every [Admit]/[Done] append is
    [Unix.fsync]ed before returning, so an acknowledged record
    survives power loss and not just SIGKILL — [Progress] records are
    advisory (losing one costs recomputation, not correctness) and
    never pay for a sync.  A [diskfault] spec arms seeded fault
    injection on every append. *)

val append : t -> entry -> unit
(** One framed record, one [write], flushed to the OS (and synced, per
    {!open_append}) before returning — a SIGKILL can tear at most the
    record in flight.
    @raise Disk_fault on an injected torn write (partial frame on disk).
    @raise Unix.Unix_error [(ENOSPC, _, _)] on an injected full disk
    (also after a partial write).  Injected bit rot is silent here and
    surfaces as a refused frame at the next replay. *)

val appended : t -> int
(** Records appended through this handle (not counting replayed
    history). *)

val close : t -> unit
