(** Newline framing of a byte stream, linear in the bytes read: each
    byte is scanned for the newline once, and each line is copied out
    once, however the stream is chunked.  Both ends of the protocol
    (server connections and {!Client}) frame through it. *)

type t

exception Too_long
(** The line being framed already exceeds the reader's [max_line]. *)

val create : ?max_line:int -> unit -> t
(** [max_line] bounds a line's length without its newline (default:
    unbounded). *)

val read : t -> Unix.file_descr -> int
(** One [Unix.read] straight into the reader's buffer, of at least
    4096 bytes when the descriptor has them; returns the count, 0 at end
    of file.  Unix errors (EAGAIN, EINTR, ...) pass through. *)

val feed : t -> Bytes.t -> int -> int -> unit
(** [feed t b off len] appends bytes as {!read} would. *)

val next : t -> string option
(** The next complete line without its newline, or [None] when only a
    partial line is held.  @raise Too_long once the held line, complete
    or not, is longer than [max_line]. *)
