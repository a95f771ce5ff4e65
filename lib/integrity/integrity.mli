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
    - string checksums used by {!Recover.Checkpoint} to reject
      truncated or bit-rotted snapshot files ({!checksum_string}).

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
