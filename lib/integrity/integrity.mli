(** End-to-end packet and artifact integrity.

    The machine simulator's routing network can corrupt payloads in
    flight ({!Fault.Fault_plan.spec}[.corrupt_prob]); a flipped bit
    satisfies every token/ack invariant the sanitizer checks while
    producing wrong answers.  This library provides the checksums that
    make such corruption *detectable*:

    - per-packet value checksums, attached by the producer when a result
      packet is sent and verified by the consumer on delivery
      ({!checksum_value} / {!verify_value});
    - a whole-run output digest over every output stream's values —
      arrival times excluded, so a clean run and a delay-faulted run of
      the same graph have equal digests ({!digest_outputs});
    - string checksums and the record frame built on them, which
      checkpoint files and journal records are written in, so a
      truncated or bit-rotted one is refused before it is parsed
      ({!checksum_string}, {!frame}, {!unframe}).

    All checksums are FNV-1a (64-bit) folded to non-negative OCaml ints.
    This is error *detection*, not cryptography: a random single-bit or
    burst error is caught with probability [1 - 2^-62], which is the
    routing-network failure model; it offers no resistance to an
    adversary. *)

val checksum_value : Dfg.Value.t -> int
(** Checksum of one payload.  Type-tagged: [Int 1], [Real 1.0] and
    [Bool true] all differ.  Reals are hashed by IEEE-754 bit pattern,
    so [-0.0] and [0.0] differ and every NaN payload pattern is
    distinguished. *)

val verify_value : Dfg.Value.t -> int -> bool
(** [verify_value v crc] is [checksum_value v = crc]. *)

val checksum_string : string -> int
(** Checksum of a byte string (length-prefixed FNV-1a). *)

val digest_outputs : (string * (int * Dfg.Value.t) list) list -> int
(** Digest of a run's output streams, as returned by the engines'
    [output_values]-shaped data: a list of [(stream name, (arrival
    time, value) list)].  Stream names and value order matter; arrival
    times are ignored (see above). *)

(** {1 Record frames}

    A frame is the header line [<magic> <crc> <len>] followed by [len]
    payload bytes whose {!checksum_string} is [crc].  Checkpoint files
    ([dfsnap2]) and journal records ([dfjent]) are frames. *)

val frame : magic:string -> string -> string
(** The frame of a payload: header line, then the payload. *)

type frame_error =
  | No_header  (** the text does not start with a [magic] header line *)
  | Bad_header
      (** the header names [magic], but its checksum or length is not a
          number, or the length is negative *)
  | Truncated of { expected : int; actual : int }
      (** fewer payload bytes follow than the header promises *)
  | Corrupted of { expected_crc : int; actual_crc : int }
      (** the payload fails the header's checksum *)

val unframe :
  magic:string -> ?pos:int -> string -> (string * int, frame_error) result
(** [unframe ~magic ~pos text] reads the frame that starts at byte [pos]
    (default 0, at most [String.length text]) of [text]: its payload
    and the position just past it.  Bytes after the payload are not
    read.  A header line with no newline runs to the end of [text] and
    has an empty payload; at the end of [text] there is [No_header]. *)
