(** Invariants over a flat [name -> value] metric set: the vocabulary
    the bench experiments declare their gates in, and the schema checker
    restates its document checks in.  Zero dependencies. *)

type metrics = (string * float) list

type t = metrics -> string list
(** A gate returns its failures, each naming the key and the value it
    saw; [[]] means it holds. *)

val check : t list -> metrics -> string list
(** The failures of every gate, in gate order. *)

(** {1 One key} Each fails when the key is missing. *)

val present : string -> t
val positive : string -> t
val nonneg : string -> t
val zero : string -> t
val unit_interval : string -> t

(** {1 Several keys} *)

val ladder : string list -> t
(** Every key present and the values non-decreasing in list order. *)

val le : string -> string -> t
(** [le a b]: both present and [a <= b]. *)

val fractions : string list -> t
(** Every key in [[0,1]], and the values sum to ~1 (within 1e-3) or
    are all 0. *)

val groups : prefix:string -> suffix:string -> (string -> t list) -> t
(** [groups ~prefix ~suffix gates]: for every key [prefix ^ s ^ suffix]
    in the metrics, run [gates stem] where [stem] is the key without
    [suffix].  Fails when no key matches. *)
