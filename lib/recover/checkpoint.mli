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
    - {e rot-detection}: the header records the payload length and an
      {!Integrity.checksum_string} of it, so a truncated or bit-rotted
      snapshot is rejected with a structured {!load_error} before any
      byte reaches the JSON parser. *)

val version : int
(** Current format version, 3: the snapshot's flat per-port and
    per-cell arrays (the run state both engines share plus the
    machine's side arrays), and the crash flag, checkpoint clock,
    checkpoint and recovery counters and rollback target a resumed
    crash-faulted run needs.  The file header is still [dfsnap2]. *)

val graph_fingerprint : Graph.t -> int
(** Structural digest of a graph (node ids, opcodes, labels, arities,
    destination lists).  Two graphs with the same fingerprint are the
    same program for checkpoint purposes. *)

val to_json : graph:Graph.t -> Machine.Machine_engine.snapshot -> Obs.Json.t

val of_json :
  graph:Graph.t ->
  Obs.Json.t ->
  (Machine.Machine_engine.snapshot, string) result
(** Rejects version mismatches (naming both versions), fingerprint
    mismatches, malformed documents and queued events that travel no
    arc of [graph] (a delivery, retransmission or acknowledge whose
    cells and port are not a producer, consumer and input port of the
    graph) with a descriptive error. *)

val save : path:string -> graph:Graph.t -> Machine.Machine_engine.snapshot -> unit

type load_error =
  | Io of string  (** file unreadable ([Sys_error] text) *)
  | Not_a_checkpoint of string
      (** integrity header missing or garbled — wrong file, or a
          checkpoint from before the header existed *)
  | Truncated of { expected : int; actual : int }
      (** payload shorter than the header promises (interrupted write,
          partial copy) *)
  | Corrupted of { expected_crc : int; actual_crc : int }
      (** payload bytes fail the content checksum (bit rot) *)
  | Malformed of string
      (** checksum passed but the document does not decode: JSON error,
          version mismatch (an older format such as 2), or
          graph-fingerprint mismatch *)

val load_error_to_string : load_error -> string

val load :
  path:string ->
  graph:Graph.t ->
  (Machine.Machine_engine.snapshot, load_error) result
(** Verifies the header's length and checksum before parsing; see
    {!load_error} for the rejection taxonomy. *)

val equal :
  Machine.Machine_engine.snapshot -> Machine.Machine_engine.snapshot -> bool
(** Structural equality (NaN-tolerant: uses [compare], so a snapshot
    containing NaN still equals its round-tripped self). *)
