open Dfg

(** Shared run-specification toolbox for the CLIs and the service.

    A run itself is described by one record, [Serve.Protocol.run], and
    resolved into an [Exec.Job.t] by one function,
    [Serve.Server.job_of_run].  This module holds what the front ends
    need around that: kernel subjects for the differential driver
    ([faultcheck]), kernel lookup by name, the watchdog sizing
    rule, deterministic input synthesis for Val source, the diffable
    output-value dump, and transport endpoint parsing. *)

(** {1 Kernel subjects} *)

val feeds :
  Compiler.Program_compile.compiled ->
  waves:int ->
  (string * Value.t list) list ->
  (string * Value.t list) list
(** {!Compiler.Driver.feeds} with [waves] labelled (the benchmark in
    [perfbench/] calls this spelling). *)

type subject = {
  kernel : Kernels.kernel;
  size : int;
  waves : int;
  compiled : Compiler.Program_compile.compiled;
  graph : Graph.t;  (** [compiled.cp_graph] *)
  inputs : (string * Value.t list) list;  (** full packet streams *)
}
(** A kernel compiled and fed: everything a differential needs to run
    it.  Construction is deterministic — the input waves are
    {!Kernels.seeded_inputs} — so every builder of the same (kernel,
    size, waves) triple gets bit-identical streams. *)

val compile_subject : Kernels.kernel -> size:int -> waves:int -> subject

val kernels_matching : string option -> (Kernels.kernel list, string) result
(** All kernels, or the one named; [Error] lists the known names. *)

(** {1 Run hygiene} *)

val watchdog_for :
  ?base:int ->
  Fault.Fault_plan.spec ->
  Run_config.recovery option ->
  int
(** A watchdog threshold sitting above every injected latency source:
    routing delays, PE stall windows, FU/AM slowdowns, and the full
    retransmission backoff window when a recovery policy is attached.
    [base] defaults to 100. *)

val synth_wave :
  seed:int -> elt:Val_lang.Ast.scalar_type -> size:int -> string -> Value.t list
(** One deterministic input wave: a PRNG keyed by [(seed, name)], so the
    same request synthesizes the same packets on any builder ([dfsim]
    and [dfclient] agree byte for byte). *)

(** {1 Result rendering} *)

val value_text : Value.t -> string
(** A packet value as text: ints and booleans plainly, reals in
    bit-exact [%h] form.  The dfserve cache key hashes scalar bindings
    in this form, and {!write_values} writes it. *)

val write_values : path:string -> (string * (int * Value.t) list) list -> unit
(** Dump output streams as diffable text: one [name\ttime\tvalue] line
    per packet, reals in bit-exact [%h] form.  [dfsim --values-out] and
    [dfclient simulate --values-out] write this same format, so CI can
    [diff] a served run against a standalone one. *)

(** {1 Transport endpoints} *)

val hostport_of_string : string -> (string * int, string) result
(** Parse a ["HOST:PORT"] TCP endpoint (an empty host means
    [127.0.0.1]; port 0 asks the kernel for an ephemeral port).  Shared
    by [dfserve --tcp] and every [tcp:] address {!Serve.Client}
    connects to. *)

val members_of_string : string -> (string list, string) result
(** Parse a cluster member list: a comma-separated address list
    (["a.sock,tcp:host:port"]) or ["@FILE"] naming a file with one
    address per line (blank lines and [#] comments ignored).  Order is
    preserved; an empty list or a duplicated address is an [Error].
    Shared by [dfclient --cluster] and [dfserve --cluster]. *)
