(** Chrome trace-event (Perfetto) export.

    Converts a list of {!Event.t} into the JSON object format understood
    by [chrome://tracing] and {{:https://ui.perfetto.dev}ui.perfetto.dev}:
    each track (instruction cell or PE) becomes a named thread, every
    {!Event.Fire} a complete duration slice ([ph = "X"]), and
    deliver/ack/stall events become instants on the receiving track.
    Simulated instruction times are exported 1:1 as trace microseconds. *)

val to_string :
  ?process_name:string ->
  ?track_names:(int * string) list ->
  Event.t list ->
  string
(** The trace document.  [track_names] names the [tid] lanes (cell ids
    for the graph simulator, PE numbers for the machine simulator);
    unnamed tracks show as bare thread ids. *)

val write_file :
  path:string ->
  ?process_name:string ->
  ?track_names:(int * string) list ->
  Event.t list ->
  unit
(** {!to_string} written to [path]. *)

val slice_count : Json.t -> int
(** Number of duration slices ([ph = "X"]) in a parsed trace document —
    equals the number of firings the trace records. *)
