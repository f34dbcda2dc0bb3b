type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

(* Recursive-descent reader over a complete string.  No stream input on
   purpose: scenario specs and protocol lines are tiny, and a whole-string
   parser keeps offsets exact for error reporting. *)
let parse_exn (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg =
    raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos))
  in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal lit v =
    let l = String.length lit in
    if !pos + l <= n && String.sub s !pos l = lit then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" lit)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      if c = '"' then Buffer.contents b
      else if c = '\\' then begin
        (if !pos >= n then fail "unterminated escape");
        let e = s.[!pos] in
        advance ();
        (match e with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | '/' -> Buffer.add_char b '/'
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
            (* Labels and protocol strings are ASCII; map BMP escapes below
               0x80, reject the rest rather than mis-decode. *)
            if !pos + 4 > n then fail "truncated \\u escape";
            let hex = String.sub s !pos 4 in
            pos := !pos + 4;
            let code =
              try int_of_string ("0x" ^ hex) with _ -> fail "bad \\u escape"
            in
            if code < 0x80 then Buffer.add_char b (Char.chr code)
            else fail "non-ASCII \\u escape unsupported"
        | _ -> fail "bad escape");
        go ()
      end
      else begin
        Buffer.add_char b c;
        go ()
      end
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let num_char c =
      (c >= '0' && c <= '9')
      || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while !pos < n && num_char s.[!pos] do
      advance ()
    done;
    if !pos = start then fail "expected number";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((key, v) :: acc)
            | Some '}' ->
                advance ();
                Obj (List.rev ((key, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          members []
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elems (v :: acc)
            | Some ']' ->
                advance ();
                Arr (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          elems []
        end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
    | None -> fail "unexpected end of input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing characters";
  v

let parse s = try Ok (parse_exn s) with Parse_error m -> Error m

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

let add_escaped b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* The C conversion [Printf.sprintf "%.17g"] ends in, without the
   format interpreter in front of it: the same bytes at a fraction of the
   cost, which dominates writing a response of a few hundred numbers. *)
external format_float : string -> float -> string = "caml_format_float"

let add_num b f =
  if not (Float.is_finite f) then Buffer.add_string b "null"
  else if
    Float.is_integer f && Float.abs f <= 1e15
    (* integral and exactly representable as an int: print without the
       exponent noise %.17g would add, the digits "%.0f" would print *)
  then
    Buffer.add_string b
      (if f = 0.0 && Float.sign_bit f then "-0" else string_of_int (truncate f))
  else Buffer.add_string b (format_float "%.17g" f)

let to_string v =
  let b = Buffer.create 128 in
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool true -> Buffer.add_string b "true"
    | Bool false -> Buffer.add_string b "false"
    | Num f -> add_num b f
    | Str s -> add_escaped b s
    | Arr items ->
        Buffer.add_char b '[';
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_char b ',';
            go v)
          items;
        Buffer.add_char b ']'
    | Obj fields ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char b ',';
            add_escaped b k;
            Buffer.add_char b ':';
            go v)
          fields;
        Buffer.add_char b '}'
  in
  go v;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let find k = function Obj fields -> List.assoc_opt k fields | _ -> None
let mem k v = find k v <> None
let to_num = function Num f -> Some f | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_bool = function Bool b -> Some b | _ -> None

let field_as ?default name conv what v =
  match find name v with
  | Some x -> (
      match conv x with
      | Some y -> Ok y
      | None -> Error (Printf.sprintf "field %S must be %s" name what))
  | None -> (
      match default with
      | Some d -> Ok d
      | None -> Error (Printf.sprintf "missing field %S" name))

let num_field ?default name v = field_as ?default name to_num "a number" v
let str_field ?default name v = field_as ?default name to_str "a string" v
let bool_field ?default name v = field_as ?default name to_bool "a boolean" v
