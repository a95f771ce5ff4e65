type recovery = {
  checkpoint_every : int;
  retransmit_after : int;
  retransmit_backoff : int;
  max_retransmits : int;
}

let default_recovery =
  {
    checkpoint_every = 250;
    retransmit_after = 48;
    retransmit_backoff = 2;
    max_retransmits = 8;
  }

type t = {
  max_time : int;
  tracer : Obs.Tracer.t;
  fault : Fault.Fault_plan.t option;
  sanitize : bool;
  watchdog : int option;
  record_firings : bool;
  recovery : recovery option;
  integrity : bool;
}

let default =
  {
    max_time = 10_000_000;
    tracer = Obs.Tracer.null;
    fault = None;
    sanitize = false;
    watchdog = None;
    record_firings = false;
    recovery = None;
    integrity = false;
  }

let check t =
  let bad key want = Error (Printf.sprintf "%s must be %s" key want) in
  match (t.watchdog, t.recovery) with
  | Some w, _ when w <= 0 -> bad "watchdog" "> 0"
  | _, Some r when r.checkpoint_every < 0 -> bad "every" ">= 0"
  | _, Some r when r.retransmit_after <= 0 -> bad "timeout" "> 0"
  | _, Some r when r.retransmit_backoff < 1 -> bad "backoff" ">= 1"
  | _, Some r when r.max_retransmits < 0 -> bad "retries" ">= 0"
  | _ -> Ok ()

let with_max_time max_time t = { t with max_time }
let with_tracer tracer t = { t with tracer }
let with_fault plan t = { t with fault = Some plan }
let with_fault_opt fault t = { t with fault }
let with_sanitize sanitize t = { t with sanitize }
let with_watchdog w t = { t with watchdog = Some w }
let with_watchdog_opt watchdog t = { t with watchdog }
let with_record_firings record_firings t = { t with record_firings }
let with_recovery r t = { t with recovery = Some r }
let with_recovery_opt recovery t = { t with recovery }
let with_integrity integrity t = { t with integrity }
