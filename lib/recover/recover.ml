module Checkpoint = Checkpoint

let of_string s : (Run_config.recovery, string) result =
  let parse_pair acc pair =
    match acc with
    | Error _ -> acc
    | Ok p -> (
      match String.index_opt pair '=' with
      | None -> Error (Printf.sprintf "bad policy item %S (want key=int)" pair)
      | Some i -> (
        let key = String.sub pair 0 i in
        let raw = String.sub pair (i + 1) (String.length pair - i - 1) in
        match int_of_string_opt raw with
        | None -> Error (Printf.sprintf "%s: bad integer %S" key raw)
        | Some v -> (
          match key with
          | "every" -> Ok { p with Run_config.checkpoint_every = v }
          | "timeout" -> Ok { p with Run_config.retransmit_after = v }
          | "backoff" -> Ok { p with Run_config.retransmit_backoff = v }
          | "retries" -> Ok { p with Run_config.max_retransmits = v }
          | _ -> Error (Printf.sprintf "unknown policy key %S" key))))
  in
  let items =
    String.split_on_char ',' s
    |> List.map String.trim
    |> List.filter (fun x -> x <> "")
  in
  match List.fold_left parse_pair (Ok Run_config.default_recovery) items with
  | Error _ as e -> e
  | Ok p -> (
    match Run_config.check (Run_config.with_recovery p Run_config.default) with
    | Ok () -> Ok p
    | Error e -> Error e)

let to_string (p : Run_config.recovery) =
  Printf.sprintf "every=%d,timeout=%d,backoff=%d,retries=%d" p.checkpoint_every
    p.retransmit_after p.retransmit_backoff p.max_retransmits

let describe (p : Run_config.recovery) =
  Printf.sprintf
    "checkpoint every %s; resend unacknowledged packets after %d (backoff \
     %dx, %d retries)"
    (if p.checkpoint_every = 0 then "(never)"
     else string_of_int p.checkpoint_every)
    p.retransmit_after p.retransmit_backoff p.max_retransmits
