(* A minimal JSON tree: just enough to emit the stats/trace files and to
   parse them back in the schema checks.  Zero dependencies, so every
   layer of the simulator can use it. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* --- emission ----------------------------------------------------------- *)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Floats print as %.6g, with a trailing ".0" forced onto integral
   values so they read back as floats. *)
let float_repr x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else Printf.sprintf "%.6g" x

(* Members of containers nested less than [lines] deep go one per line,
   indented two spaces a level; deeper containers print compact. *)
let rec emit ~lines depth buf t =
  let seq opening closing member xs =
    let broken = depth < lines && xs <> [] in
    let newline d =
      if broken then begin
        Buffer.add_char buf '\n';
        Buffer.add_string buf (String.make (2 * d) ' ')
      end
    in
    Buffer.add_char buf opening;
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        newline (depth + 1);
        member broken x)
      xs;
    newline depth;
    Buffer.add_char buf closing
  in
  match t with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float x -> Buffer.add_string buf (float_repr x)
  | String s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
  | List xs -> seq '[' ']' (fun _ x -> emit ~lines (depth + 1) buf x) xs
  | Obj kvs ->
      seq '{' '}'
        (fun broken (k, v) ->
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape k);
          Buffer.add_string buf (if broken then "\": " else "\":");
          emit ~lines (depth + 1) buf v)
        kvs

let to_string ?(lines = 0) t =
  let buf = Buffer.create 1024 in
  emit ~lines 0 buf t;
  Buffer.contents buf

let to_channel ?lines oc t = output_string oc (to_string ?lines t)

(* --- parsing ------------------------------------------------------------- *)

exception Parse_error of string

type cursor = { s : string; mutable pos : int }

let error c msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg c.pos))

let peek c = if c.pos < String.length c.s then Some c.s.[c.pos] else None

let skip_ws c =
  while
    c.pos < String.length c.s
    && (match c.s.[c.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
  do
    c.pos <- c.pos + 1
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> c.pos <- c.pos + 1
  | _ -> error c (Printf.sprintf "expected '%c'" ch)

let parse_literal c word value =
  if
    c.pos + String.length word <= String.length c.s
    && String.sub c.s c.pos (String.length word) = word
  then begin
    c.pos <- c.pos + String.length word;
    value
  end
  else error c ("expected " ^ word)

let parse_string_raw c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec go () =
    if c.pos >= String.length c.s then error c "unterminated string";
    match c.s.[c.pos] with
    | '"' -> c.pos <- c.pos + 1
    | '\\' ->
        c.pos <- c.pos + 1;
        (if c.pos >= String.length c.s then error c "unterminated escape";
         match c.s.[c.pos] with
         | '"' -> Buffer.add_char buf '"'
         | '\\' -> Buffer.add_char buf '\\'
         | '/' -> Buffer.add_char buf '/'
         | 'n' -> Buffer.add_char buf '\n'
         | 't' -> Buffer.add_char buf '\t'
         | 'r' -> Buffer.add_char buf '\r'
         | 'b' -> Buffer.add_char buf '\b'
         | 'f' -> Buffer.add_char buf '\012'
         | 'u' ->
             if c.pos + 4 >= String.length c.s then error c "short \\u escape";
             let hex = String.sub c.s (c.pos + 1) 4 in
             (match int_of_string_opt ("0x" ^ hex) with
             | Some n when n < 128 -> Buffer.add_char buf (Char.chr n)
             | Some _ -> Buffer.add_char buf '?' (* non-ASCII: placeholder *)
             | None -> error c "bad \\u escape");
             c.pos <- c.pos + 4
         | _ -> error c "bad escape");
        c.pos <- c.pos + 1;
        go ()
    | ch ->
        Buffer.add_char buf ch;
        c.pos <- c.pos + 1;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let is_num_char ch =
    match ch with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while c.pos < String.length c.s && is_num_char c.s.[c.pos] do
    c.pos <- c.pos + 1
  done;
  let tok = String.sub c.s start (c.pos - start) in
  match int_of_string_opt tok with
  | Some n -> Int n
  | None -> (
      match float_of_string_opt tok with
      | Some x -> Float x
      | None -> error c "bad number")

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> error c "unexpected end of input"
  | Some '"' -> String (parse_string_raw c)
  | Some '{' ->
      expect c '{';
      skip_ws c;
      if peek c = Some '}' then begin
        c.pos <- c.pos + 1;
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws c;
          let k = parse_string_raw c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              c.pos <- c.pos + 1;
              members ((k, v) :: acc)
          | Some '}' ->
              c.pos <- c.pos + 1;
              List.rev ((k, v) :: acc)
          | _ -> error c "expected ',' or '}'"
        in
        Obj (members [])
      end
  | Some '[' ->
      expect c '[';
      skip_ws c;
      if peek c = Some ']' then begin
        c.pos <- c.pos + 1;
        List []
      end
      else begin
        let rec elements acc =
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              c.pos <- c.pos + 1;
              elements (v :: acc)
          | Some ']' ->
              c.pos <- c.pos + 1;
              List.rev (v :: acc)
          | _ -> error c "expected ',' or ']'"
        in
        List (elements [])
      end
  | Some 't' -> parse_literal c "true" (Bool true)
  | Some 'f' -> parse_literal c "false" (Bool false)
  | Some 'n' -> parse_literal c "null" Null
  | Some _ -> parse_number c

let of_string s =
  let c = { s; pos = 0 } in
  match parse_value c with
  | v ->
      skip_ws c;
      if c.pos <> String.length s then Error "trailing garbage"
      else Ok v
  | exception Parse_error m -> Error m

(* --- accessors ------------------------------------------------------------ *)

let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None

(* Dotted-path member lookup into nested objects. *)
let rec path keys t =
  match keys with
  | [] -> Some t
  | k :: rest -> ( match member k t with Some v -> path rest v | None -> None)
