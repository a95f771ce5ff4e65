(** Seeded disk-fault injection: the storage twin of {!Netfault}.

    A {!spec} arms four failure modes on journal appends — torn writes
    (a prefix of the frame reaches the disk before the "crash"), ENOSPC
    (a partial write and then the device is full), bit rot (one bit of
    the frame flips at rest) and slow sync (the fsync hangs).  Every
    decision is a pure function of (seed, append ordinal) via the same
    keyed-hash discipline {!Fault.Fault_plan} and {!Netfault} use, so a
    soak replays the identical disk betrayals whatever the thread
    interleaving — faultcheck's service-soak transcripts stay
    byte-identical at any worker count.

    {!Journal.open_append} threads a spec through every append; the
    torn and ENOSPC actions raise ({!Journal.Disk_fault} /
    [Unix_error (ENOSPC, _, _)]) after their partial write, bit rot is
    silent until replay's CRC check refuses the frame, and slow sync
    just stalls.  Replication exists exactly for what these inject: a
    record the local disk betrayed survives on the quorum peers. *)

type spec = {
  df_seed : int;
  torn_prob : float;  (** append writes a prefix, then the "crash" *)
  enospc_prob : float;  (** partial write, then [ENOSPC] *)
  rot_prob : float;  (** one bit of the frame flips at rest *)
  slow_prob : float;  (** the sync hangs *)
  slow_s : float;  (** for how long, seconds *)
}

val none : spec

val hostile : seed:int -> spec
(** Every mode armed at a few percent, syncs briefly stalled — the
    selftest's lying disk. *)

val validate : spec -> unit
(** @raise Invalid_argument on a probability outside [0,1] or a
    negative sync delay. *)

type action =
  | Pass
  | Torn of float  (** fraction of the frame that reaches the disk *)
  | Enospc of float  (** fraction written before the device fills *)
  | Rot of int  (** pseudo-random bit index (reduce modulo frame bits) *)
  | Slow_sync of float  (** seconds the sync hangs *)

val action : spec -> op:int -> action
(** The fate of append ordinal [op]: a pure keyed-hash decision. *)

val to_string : spec -> string
(** [seed=N torn=P enospc=P rot=P slow=P slow_s=S], zero fields
    omitted; reals in [%h] so {!of_string} round-trips exactly. *)

val of_string : string -> (spec, string) result
(** Parse a [--diskfault] argument: space- or comma-separated
    [key=value] pairs over the {!to_string} keys; unarmed fields
    default to zero.  Validates before returning. *)
