type token =
  | INT of int
  | REAL of float
  | IDENT of string
  | KW of string
  | LPAREN | RPAREN
  | LBRACKET | RBRACKET
  | COMMA | SEMI | COLON
  | ASSIGN
  | PLUS | MINUS | STAR | SLASH
  | LT | LE | GT | GE | EQ | NE
  | AMP | BAR | TILDE
  | EOF

type located = { tok : token; line : int; col : int }

exception Lex_error of string * int * int

let keywords =
  [
    "forall"; "in"; "construct"; "endall";
    "for"; "do"; "iter"; "enditer"; "endfor";
    "if"; "then"; "else"; "elseif"; "endif";
    "let"; "endlet";
    "array"; "integer"; "real"; "boolean";
    "param"; "input";
    "min"; "max"; "true"; "false";
    "sqrt"; "abs"; "exp"; "ln"; "sin"; "cos";
  ]

let keyword_table =
  let t = Hashtbl.create 64 in
  List.iter (fun k -> Hashtbl.replace t k ()) keywords;
  t

let is_keyword s = Hashtbl.mem keyword_table s

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')

let is_digit c = c >= '0' && c <= '9'

type cursor = {
  src : string;
  len : int;
  mutable pos : int;
  mutable line : int;
  mutable col : int;
}

(* Past the end, [peek] reads an end sentinel: NUL, which no token,
   blank or comment test accepts, so the character loops stop there
   without an option per character.  Where a NUL in the source must be
   told apart from the end (the top-level loop, comments), [at_end]
   does it. *)
let sentinel = '\000'

let at_end cur = cur.pos >= cur.len

let peek cur =
  if cur.pos < cur.len then String.unsafe_get cur.src cur.pos else sentinel

let peek2 cur =
  if cur.pos + 1 < cur.len then String.unsafe_get cur.src (cur.pos + 1)
  else sentinel

let advance cur =
  (if cur.pos < cur.len then
     if String.unsafe_get cur.src cur.pos = '\n' then begin
       cur.line <- cur.line + 1;
       cur.col <- 1
     end
     else cur.col <- cur.col + 1);
  cur.pos <- cur.pos + 1

let rec skip_blank_and_comments cur =
  match peek cur with
  | ' ' | '\t' | '\r' | '\n' ->
    advance cur;
    skip_blank_and_comments cur
  | '%' ->
    while (not (at_end cur)) && peek cur <> '\n' do
      advance cur
    done;
    skip_blank_and_comments cur
  | _ -> ()

let skip_digits cur =
  while is_digit (peek cur) do
    advance cur
  done

let lex_number cur =
  let line = cur.line and col = cur.col in
  let start = cur.pos in
  skip_digits cur;
  (* A '.' makes it real, but ".." would be a range operator (unused in
     this subset) so only a dot NOT followed by another dot counts. *)
  let is_real = peek cur = '.' && peek2 cur <> '.' in
  if is_real then begin
    advance cur;
    skip_digits cur;
    (* optional exponent *)
    (match peek cur with
    | 'e' | 'E' ->
      let c = peek2 cur in
      if is_digit c || c = '+' || c = '-' then begin
        advance cur;
        (match peek cur with '+' | '-' -> advance cur | _ -> ());
        skip_digits cur
      end
    | _ -> ());
    let text = String.sub cur.src start (cur.pos - start) in
    match float_of_string_opt text with
    | Some f -> { tok = REAL f; line; col }
    | None -> raise (Lex_error ("malformed real literal " ^ text, line, col))
  end
  else begin
    let text = String.sub cur.src start (cur.pos - start) in
    match int_of_string_opt text with
    | Some i -> { tok = INT i; line; col }
    | None -> raise (Lex_error ("malformed integer literal " ^ text, line, col))
  end

let lex_ident cur =
  let line = cur.line and col = cur.col in
  let start = cur.pos in
  while is_ident_char (peek cur) do
    advance cur
  done;
  let text = String.sub cur.src start (cur.pos - start) in
  let tok = if is_keyword text then KW text else IDENT text in
  { tok; line; col }

(* Called only before the end of the source. *)
let lex_symbol cur =
  let line = cur.line and col = cur.col in
  let simple tok =
    advance cur;
    { tok; line; col }
  in
  let two_char tok =
    advance cur;
    advance cur;
    { tok; line; col }
  in
  match peek cur with
  | '(' -> simple LPAREN
  | ')' -> simple RPAREN
  | '[' -> simple LBRACKET
  | ']' -> simple RBRACKET
  | ',' -> simple COMMA
  | ';' -> simple SEMI
  | ':' -> if peek2 cur = '=' then two_char ASSIGN else simple COLON
  | '+' -> simple PLUS
  | '-' -> simple MINUS
  | '*' -> simple STAR
  | '/' -> simple SLASH
  | '<' -> if peek2 cur = '=' then two_char LE else simple LT
  | '>' -> if peek2 cur = '=' then two_char GE else simple GT
  | '=' -> simple EQ
  | '~' -> if peek2 cur = '=' then two_char NE else simple TILDE
  | '&' -> simple AMP
  | '|' -> simple BAR
  | c -> raise (Lex_error (Printf.sprintf "illegal character %C" c, line, col))

let tokenize src =
  let cur = { src; len = String.length src; pos = 0; line = 1; col = 1 } in
  let rec loop acc =
    skip_blank_and_comments cur;
    if at_end cur then
      List.rev ({ tok = EOF; line = cur.line; col = cur.col } :: acc)
    else
      let c = peek cur in
      if is_digit c then loop (lex_number cur :: acc)
      else if is_ident_start c then loop (lex_ident cur :: acc)
      else loop (lex_symbol cur :: acc)
  in
  loop []

let token_name = function
  | INT i -> Printf.sprintf "integer %d" i
  | REAL f -> Printf.sprintf "real %g" f
  | IDENT s -> Printf.sprintf "identifier %s" s
  | KW s -> Printf.sprintf "keyword %s" s
  | LPAREN -> "(" | RPAREN -> ")"
  | LBRACKET -> "[" | RBRACKET -> "]"
  | COMMA -> "," | SEMI -> ";" | COLON -> ":"
  | ASSIGN -> ":="
  | PLUS -> "+" | MINUS -> "-" | STAR -> "*" | SLASH -> "/"
  | LT -> "<" | LE -> "<=" | GT -> ">" | GE -> ">=" | EQ -> "=" | NE -> "~="
  | AMP -> "&" | BAR -> "|" | TILDE -> "~"
  | EOF -> "end of input"
