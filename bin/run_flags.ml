(* The run flags dfsim and dfclient share.  Each is spelled once, here,
   and sets one field of Serve.Protocol.run: the record a dfserve
   simulate request carries and Serve.Server.job_of_run resolves into a
   job.  The same flags therefore describe the same run to the
   standalone simulator and to the service (docs/SERVICE.md maps each
   flag to its wire field). *)

open Cmdliner
module P = Serve.Protocol

type t = {
  seed : int;  (** input-synthesis seed of a Val source program *)
  run : P.program -> P.run;  (** the run of a program under these flags *)
  values_out : string option;
  metrics_out : string option;
}

let watchdog_conv =
  let parse = function
    | "auto" -> Ok P.Auto
    | s -> (
      match int_of_string_opt s with
      | Some n -> Ok (P.At n)
      | None -> Error "expected a count or 'auto'")
  in
  let print ppf = function
    | P.Off -> Format.pp_print_string ppf "off"
    | P.Auto -> Format.pp_print_string ppf "auto"
    | P.At n -> Format.pp_print_int ppf n
  in
  Arg.conv' (parse, print)

let term =
  let seed =
    Arg.(value & opt int 1
         & info [ "seed" ] ~docv:"N"
             ~doc:"seed for the input waves synthesized for a Val source \
                   program")
  in
  let waves =
    Arg.(value & opt int 1
         & info [ "waves" ] ~docv:"N" ~doc:"input waves to stream")
  in
  let machine =
    Arg.(value & flag
         & info [ "machine" ]
             ~doc:"run on the machine-level simulator (PE/FU/AM/RN)")
  in
  let pe =
    Arg.(value & opt (some int) None
         & info [ "pe" ] ~docv:"N"
             ~doc:"processing elements (machine; default the machine \
                   model's)")
  in
  let stored =
    Arg.(value & flag
         & info [ "stored" ]
             ~doc:"store arrays in array memory (the baseline) instead of \
                   streaming them (machine)")
  in
  let fault =
    Arg.(value & opt (some string) None
         & info [ "fault" ] ~docv:"SPEC"
             ~doc:"inject deterministic faults; SPEC is comma-separated \
                   key=value with keys seed, delay, dup, drop-ack, drop, \
                   stall, corrupt, corrupt-ctl (probabilities), delay-max, \
                   stall-max, fu-slow, am-slow, crash-at (magnitudes), \
                   crash-pe (PE index), e.g. seed=7,delay=0.2,corrupt=0.05; \
                   the same SPEC always perturbs the same packets")
  in
  let recover =
    Arg.(value & opt ~vopt:(Some "") (some string) None
         & info [ "recover" ] ~docv:"SPEC"
             ~doc:"enable checkpoint/retransmission recovery (machine): \
                   lost packets and acknowledges are resent and a crash-pe \
                   fault rolls back to the last checkpoint instead of \
                   wedging.  SPEC is comma-separated key=int over every \
                   (checkpoint interval), timeout, backoff, retries; bare \
                   --recover uses the defaults")
  in
  let integrity =
    Arg.(value & flag
         & info [ "integrity" ]
             ~doc:"verify per-packet checksums at delivery (machine): a \
                   corrupted payload is detected and discarded instead of \
                   silently consumed; with --recover the producer's \
                   retransmission replaces it and the run heals")
  in
  let watchdog =
    Arg.(value & opt (some watchdog_conv) None
         & info [ "watchdog" ] ~docv:"N|auto"
             ~doc:"stop with a stall report if no cell fires for N \
                   consecutive time units while packets are in flight; \
                   auto sizes N above every latency the fault plan and \
                   recovery policy can inject")
  in
  let sanitize =
    Arg.(value & flag
         & info [ "sanitize" ]
             ~doc:"shadow-check dataflow invariants (one token per arc, \
                   acknowledge conservation) with a fresh sanitizer and \
                   report violations instead of aborting")
  in
  let values_out =
    Arg.(value & opt (some string) None
         & info [ "values-out" ] ~docv:"OUT"
             ~doc:"write every output packet as one name/time/value line \
                   (reals in bit-exact hex-float form); dfsim and dfclient \
                   write the same format, so a served run diffs against a \
                   standalone one")
  in
  let metrics_out =
    Arg.(value & opt (some string) None
         & info [ "metrics-out" ] ~docv:"OUT"
             ~doc:"write the run's metrics (counters, gauges, histograms) \
                   as JSON")
  in
  let make seed waves machine n_pe stored fault recovery integrity watchdog
      sanitize values_out metrics_out =
    { seed;
      run =
        (fun program ->
          { (P.default_run program) with
            P.waves;
            engine = (if machine then `Machine else `Sim);
            n_pe;
            stored;
            fault;
            recovery;
            integrity;
            watchdog = Option.value watchdog ~default:P.Off;
            sanitize });
      values_out;
      metrics_out }
  in
  Term.(const make $ seed $ waves $ machine $ pe $ stored $ fault $ recover
        $ integrity $ watchdog $ sanitize $ values_out $ metrics_out)
