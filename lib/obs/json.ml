type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* "\\u%04x" digits for the control characters *)
let hex_digits = "0123456789abcdef"

(* Runs of bytes that need no escape go out as one substring. *)
let add_escaped buf s =
  let n = String.length s in
  let run = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || c < ' ' then begin
      if i > !run then Buffer.add_substring buf s !run (i - !run);
      (match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c ->
        Buffer.add_string buf "\\u00";
        Buffer.add_char buf hex_digits.[Char.code c lsr 4];
        Buffer.add_char buf hex_digits.[Char.code c land 15]);
      run := i + 1
    end
  done;
  if n > !run then Buffer.add_substring buf s !run (n - !run)

(* The C conversion that Printf's "%.1f", "%.12g" and "%.17g" end in,
   without the format interpreter in front of it. *)
external format_float : string -> float -> string = "caml_format_float"

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
    if Float.is_nan f || f = Float.infinity || f = Float.neg_infinity then
      (* JSON has no non-finite numbers; wire formats that need them
         exact carry reals as hex-float strings instead (see mli) *)
      Buffer.add_string buf "null"
    else if Float.is_integer f && Float.abs f < 1e15 then
      (* keep integral floats readable and round-trippable *)
      Buffer.add_string buf (format_float "%.1f" f)
    else
      (* shortest decimal form that parses back to the same bits: try
         12 significant digits for readability, fall back to the 17
         IEEE-754 doubles always round-trip through *)
      let s = format_float "%.12g" f in
      let s = if float_of_string s = f then s else format_float "%.17g" f in
      (* keep a '.' or exponent so the parser reads a Float, not an Int *)
      let s =
        if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s
        else s ^ ".0"
      in
      Buffer.add_string buf s
  | String s ->
    Buffer.add_char buf '"';
    add_escaped buf s;
    Buffer.add_char buf '"'
  | List xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        to_buffer buf x)
      xs;
    Buffer.add_char buf ']'
  | Obj kvs ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_char buf '"';
        add_escaped buf k;
        Buffer.add_string buf "\":";
        to_buffer buf v)
      kvs;
    Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  to_buffer buf j;
  Buffer.contents buf

let write_file path j =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_string j);
      output_char oc '\n')

exception Parse_error of string

let of_string s =
  let pos = ref 0 in
  let n = String.length s in
  let fail msg =
    raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos))
  in
  (* '\000' past the end: no branch below accepts it, as none accepts
     a NUL byte in the text *)
  let peek () = if !pos < n then String.unsafe_get s !pos else '\000' in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let lit word v =
    let k = String.length word in
    if !pos + k <= n && String.sub s !pos k = word then begin
      pos := !pos + k;
      v
    end
    else fail "bad literal"
  in
  let number () =
    let start = !pos in
    let part c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && part s.[!pos] do
      incr pos
    done;
    let tok = String.sub s start (!pos - start) in
    match int_of_string_opt tok with
    | Some i -> Int i
    | None -> (
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> fail "bad number")
  in
  (* the escaped tail of a string literal whose first [start..!pos)
     bytes needed no escape *)
  let escaped_string start =
    let buf = Buffer.create (!pos - start + 16) in
    Buffer.add_substring buf s start (!pos - start);
    let finished = ref false in
    while not !finished do
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' ->
          incr pos;
          finished := true
        | '\\' ->
          incr pos;
          if !pos >= n then fail "bad escape";
          (match s.[!pos] with
          | '"' -> Buffer.add_char buf '"'; incr pos
          | '\\' -> Buffer.add_char buf '\\'; incr pos
          | '/' -> Buffer.add_char buf '/'; incr pos
          | 'b' -> Buffer.add_char buf '\b'; incr pos
          | 'f' -> Buffer.add_char buf '\012'; incr pos
          | 'n' -> Buffer.add_char buf '\n'; incr pos
          | 'r' -> Buffer.add_char buf '\r'; incr pos
          | 't' -> Buffer.add_char buf '\t'; incr pos
          | 'u' ->
            if !pos + 4 >= n then fail "bad unicode escape";
            (match int_of_string_opt ("0x" ^ String.sub s (!pos + 1) 4) with
            | Some code when code < 0x80 -> Buffer.add_char buf (Char.chr code)
            | Some _ -> Buffer.add_char buf '?'
            | None -> fail "bad unicode escape");
            pos := !pos + 5
          | _ -> fail "bad escape")
        | c ->
          Buffer.add_char buf c;
          incr pos
    done;
    Buffer.contents buf
  in
  let string_lit () =
    expect '"';
    let start = !pos in
    while
      !pos < n
      && match String.unsafe_get s !pos with '"' | '\\' -> false | _ -> true
    do
      incr pos
    done;
    if !pos < n && s.[!pos] = '"' then begin
      (* no escape: the literal is one substring *)
      incr pos;
      String.sub s start (!pos - 1 - start)
    end
    else escaped_string start
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' -> obj ()
    | '[' -> arr ()
    | '"' -> String (string_lit ())
    | 't' -> lit "true" (Bool true)
    | 'f' -> lit "false" (Bool false)
    | 'n' -> lit "null" Null
    | '-' | '0' .. '9' -> number ()
    | _ -> fail "unexpected character"
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = ']' then begin
      incr pos;
      List []
    end
    else
      let rec items acc =
        let v = value () in
        skip_ws ();
        match peek () with
        | ',' ->
          incr pos;
          items (v :: acc)
        | ']' ->
          incr pos;
          List (List.rev (v :: acc))
        | _ -> fail "expected ',' or ']'"
      in
      items []
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = '}' then begin
      incr pos;
      Obj []
    end
    else
      let rec items acc =
        skip_ws ();
        let k = string_lit () in
        skip_ws ();
        expect ':';
        let v = value () in
        skip_ws ();
        match peek () with
        | ',' ->
          incr pos;
          items ((k, v) :: acc)
        | '}' ->
          incr pos;
          Obj (List.rev ((k, v) :: acc))
        | _ -> fail "expected ',' or '}'"
      in
      items []
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let member key = function
  | Obj kvs -> ( match List.assoc_opt key kvs with Some v -> v | None -> Null)
  | _ -> Null

let get_list = function List xs -> xs | _ -> []
let get_string = function String s -> Some s | _ -> None
let get_int = function Int i -> Some i | _ -> None

let get_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let get_bool = function Bool b -> Some b | _ -> None
