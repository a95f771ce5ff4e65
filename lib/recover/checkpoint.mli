open Dfg

(** Versioned on-disk format for {!Machine.Machine_engine.snapshot}.

    A checkpoint file is a one-line integrity header followed by a JSON
    document (written with the dependency-free {!Obs.Json}, so loading
    needs nothing external).  Three properties matter more than
    compactness:

    - {e bit-exactness}: [Real] values are encoded as hexadecimal
      float literals ([%h]), not decimal — a snapshot saved, loaded and
      resumed must produce outputs bit-identical to the uncheckpointed
      run, and decimal round-tripping cannot promise that;
    - {e self-description}: the file carries a format [version] and a
      fingerprint of the instruction graph it was taken from, so loading
      a checkpoint against the wrong program (or a stale format) fails
      loudly instead of resuming garbage;
    - {e rot-detection}: the file is one {!Integrity.frame}, whose
      header records the payload length and an
      {!Integrity.checksum_string} of it, so a truncated or bit-rotted
      snapshot, or one whose header length is negative or not a
      number, is rejected with a structured {!load_error} before any
      byte reaches the JSON parser. *)

val value_to_json : Value.t -> Obs.Json.t
(** A packet value as checkpoints and the service's wire carry it:
    [{"i":n}], [{"b":b}] or [{"r":"<%h literal>"}]. *)

val value_of_json : Obs.Json.t -> (Value.t, string) result
(** Exactly one member among [i], [b] and [r], of its type. *)

val packet_to_json : int * Value.t -> Obs.Json.t
(** A [(time, value)] packet as [[time, value]]. *)

val packet_of_json : Obs.Json.t -> (int * Value.t, string) result

val version : int
(** Current format version, 5: the snapshot's flat per-port and
    per-cell arrays (the run state both engines share plus the
    machine's side arrays), the queued events in the order they apply,
    each as the engine keeps it — due time, kind, the consumer-side
    global port of its arc, sequence number and, for a delivery,
    payload and checksum — and the crash flag, checkpoint clock,
    checkpoint and recovery counters and rollback target a resumed
    crash-faulted run needs.  Every per-port field is indexed by the
    same {!Arena} port numbers.  The file header is still [dfsnap2]. *)

val fingerprint : Graph.t -> int
(** The digest of a graph a document carries, so that loading it
    against another program fails.  It reads the whole graph: a caller
    that encodes many snapshots of one graph computes it once. *)

val to_json :
  graph:Graph.t ->
  ?fingerprint:int ->
  Machine.Machine_engine.snapshot ->
  Obs.Json.t
(** [fingerprint] defaults to [fingerprint graph]. *)

val of_json :
  arena:Arena.t ->
  Obs.Json.t ->
  (Machine.Machine_engine.snapshot, string) result
(** Decode a document taken from [arena]'s graph, checking its events
    against the arena as it stands (nothing is lowered again).  Rejects
    version mismatches (naming both versions: a format-4 document reads
    [checkpoint format version 4, this build reads 5]), fingerprint
    mismatches, malformed documents and queued events whose port is no
    arc port of the arena ({!Arena.is_arc}; the error begins
    [events[k]]) with a descriptive error.  What else a snapshot must
    satisfy to fit a machine is {!Machine.Machine_engine.restore}'s
    check. *)

val save : path:string -> graph:Graph.t -> Machine.Machine_engine.snapshot -> unit

type load_error =
  | Io of string  (** file unreadable ([Sys_error] text) *)
  | Not_a_checkpoint of string
      (** integrity header missing or garbled (its checksum or length
          not a number, or a negative length) — wrong file, or a
          checkpoint from before the header existed *)
  | Truncated of { expected : int; actual : int }
      (** payload shorter than the header promises (interrupted write,
          partial copy) *)
  | Corrupted of { expected_crc : int; actual_crc : int }
      (** payload bytes fail the content checksum (bit rot) *)
  | Malformed of string
      (** checksum passed but the document does not decode: JSON error,
          version mismatch (an older format such as 4), or
          graph-fingerprint mismatch *)

val load_error_to_string : load_error -> string

val load :
  path:string ->
  arena:Arena.t ->
  (Machine.Machine_engine.snapshot, load_error) result
(** Verifies the header's length and checksum before parsing; see
    {!load_error} for the rejection taxonomy. *)

val equal :
  Machine.Machine_engine.snapshot -> Machine.Machine_engine.snapshot -> bool
(** Structural equality (NaN-tolerant: uses [compare], so a snapshot
    containing NaN still equals its round-tripped self). *)
