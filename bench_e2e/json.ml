(** A minimal JSON value, printer and parser: enough for the benchmark's
    result documents and for reading [BENCHMARK.json]. The repository
    links no JSON library. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(** Numbers print with all the digits needed to read back the same
    float; integral values print without a fraction. *)
let num_to_string x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "null"

let escape s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num x -> num_to_string x
  | Str s -> escape s
  | Arr xs -> "[" ^ String.concat ", " (List.map to_string xs) ^ "]"
  | Obj kvs ->
    "{" ^ String.concat ", " (List.map (fun (k, v) -> escape k ^ ": " ^ to_string v) kvs) ^ "}"

exception Parse_error of string

let parse (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let rec skip () =
    if !pos < n then
      match s.[!pos] with
      | ' ' | '\t' | '\n' | '\r' -> incr pos; skip ()
      | _ -> ()
  in
  let expect c =
    skip ();
    if !pos < n && s.[!pos] = c then incr pos else fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    let k = String.length word in
    if !pos + k <= n && String.sub s !pos k = word then (pos := !pos + k; v)
    else fail "bad literal"
  in
  let string_ () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> ()
      | '\\' ->
        if !pos >= n then fail "unterminated escape";
        let e = s.[!pos] in
        incr pos;
        (match e with
         | 'n' -> Buffer.add_char b '\n'
         | 't' -> Buffer.add_char b '\t'
         | 'r' -> Buffer.add_char b '\r'
         | 'b' -> Buffer.add_char b '\b'
         | 'f' -> Buffer.add_char b '\012'
         | 'u' ->
           if !pos + 4 > n then fail "short \\u escape";
           (match int_of_string_opt ("0x" ^ String.sub s !pos 4) with
            | Some code when code < 0x80 -> Buffer.add_char b (Char.chr code)
            | Some _ -> Buffer.add_char b '?'
            | None -> fail "bad \\u escape");
           pos := !pos + 4
         | c -> Buffer.add_char b c);
        go ()
      | c -> Buffer.add_char b c; go ()
    in
    go ();
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    let numeric = function '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false in
    while !pos < n && numeric s.[!pos] do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some x -> Num x
    | None -> fail "bad number"
  in
  let rec value () =
    skip ();
    if !pos >= n then fail "unexpected end";
    match s.[!pos] with
    | '{' ->
      incr pos;
      skip ();
      if !pos < n && s.[!pos] = '}' then (incr pos; Obj [])
      else
        let rec fields acc =
          let k = string_ () in
          expect ':';
          let v = value () in
          skip ();
          if !pos < n && s.[!pos] = ',' then (incr pos; skip (); fields ((k, v) :: acc))
          else (expect '}'; Obj (List.rev ((k, v) :: acc)))
        in
        fields []
    | '[' ->
      incr pos;
      skip ();
      if !pos < n && s.[!pos] = ']' then (incr pos; Arr [])
      else
        let rec items acc =
          let v = value () in
          skip ();
          if !pos < n && s.[!pos] = ',' then (incr pos; items (v :: acc))
          else (expect ']'; Arr (List.rev (v :: acc)))
        in
        items []
    | '"' -> Str (string_ ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> number ()
  in
  let v = value () in
  skip ();
  if !pos <> n then fail "trailing data";
  v

let member k = function
  | Obj kvs -> (match List.assoc_opt k kvs with Some v -> v | None -> Null)
  | _ -> Null

let to_num = function Num x -> x | _ -> nan
let to_str = function Str s -> s | _ -> ""
let to_list = function Arr xs -> xs | _ -> []
let to_assoc = function Obj kvs -> kvs | _ -> []

let read_file path = parse (In_channel.with_open_bin path In_channel.input_all)
