(** A minimal JSON tree — emission for the stats/trace dumps, parsing
    for the schema checks.  Zero dependencies. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val escape : string -> string
val to_string : ?lines:int -> t -> string
(** Compact by default; with [~lines:n], the members of containers
    nested less than [n] deep go one per line, indented. *)

val to_channel : ?lines:int -> out_channel -> t -> unit

val of_string : string -> (t, string) result
(** Parse a complete JSON document (ASCII; [\u] escapes above 127
    degrade to ['?']). *)

val member : string -> t -> t option
val path : string list -> t -> t option
(** [path ["a"; "b"] t] follows nested object members. *)
