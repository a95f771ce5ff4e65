(** Seeded wire-fault injection for the dfserve transport.

    A hostile network, as a deterministic function: when a client (as
    faultcheck's --serve churn does) arms a [spec], each outgoing
    request line consults {!action} — keyed by (seed, connection
    number, operation number), the same stateless-hash discipline
    {!Fault.Fault_plan} uses — and is either sent intact, dropped with
    the connection, truncated mid-frame, prefixed with newline-free
    garbage bytes, or stalled partway through the write.  The retry
    layer above ({!Client.resilient_rpc}) must heal every one of these
    into an exactly-once result; the server must survive all of them
    with structured errors or clean deadline closes. *)

type spec = {
  nf_seed : int;
  drop_prob : float;  (** close the connection instead of writing *)
  trunc_prob : float;  (** write a prefix of the line, then close *)
  garbage_prob : float;  (** junk bytes prepended to the line *)
  stall_prob : float;  (** pause mid-write (trips idle deadlines) *)
  stall_s : float;  (** pause length, seconds *)
}

val none : spec
val hostile : seed:int -> spec
(** A mix with every fault armed at moderate probability. *)

val validate : spec -> unit
(** @raise Invalid_argument on probabilities outside [0,1]. *)

type action =
  | Pass
  | Drop
  | Truncate of float  (** fraction of the line that escapes *)
  | Garbage of string
  | Stall of float * float  (** split fraction, pause seconds *)

val action : spec -> conn:int -> op:int -> action
(** Pure: the same (seed, conn, op) triple always yields the same
    action. *)
