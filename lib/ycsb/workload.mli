(** YCSB-style workload specifications and operation streams.

    {!paper_default} is the paper's harness preset (Section VII-A):
    10,000 records, 100,000 operations, 95 % GET / 5 % SET where every
    SET inserts a new pair, keys drawn with the "latest" distribution. *)

type dist_kind = Uniform | Zipfian | Scrambled_zipfian | Latest | Hotspot

type spec = {
  name : string;
  record_count : int;
  operation_count : int;
  read_proportion : float;
  update_proportion : float;  (** SET to an existing key *)
  insert_proportion : float;  (** SET inserting a new key *)
  scan_proportion : float;  (** multi-get over consecutive record indices *)
  rmw_proportion : float;  (** read-modify-write on an existing key *)
  scan_length : int;  (** records per scan *)
  hot_fraction : float;  (** Hotspot: fraction of records in the hot set *)
  hot_op_fraction : float;  (** Hotspot: fraction of draws hitting it *)
  distribution : dist_kind;
  seed : int;
}

val paper_default : spec
val workload_a : spec
val workload_b : spec
val workload_c : spec
val workload_d : spec

val scale : spec -> int -> spec
(** Divide record and operation counts by a factor. *)

val key_of_index : int -> int64
(** The (scrambled) key of record index [i]. *)

(** A run-phase operation at the record-index level: record indices
    instead of keys (recomputed with {!key_of_index} at replay), [int]
    values. *)
type idx_op =
  | IRead of int
  | IUpdate of int * int  (** SET of an existing record to a value *)
  | IInsert of int * int  (** SET of a fresh record to a value *)
  | IScan of int * int
      (** [IScan (start, len)]: multi-get of records
          [start .. start+len-1]. *)
  | IRmw of int * int
      (** [IRmw (i, delta)]: read the value of record [i] and write
          back value + [delta]. *)

val iter_idx_ops : spec -> (idx_op -> unit) -> unit
(** Stream the run-phase operations in order; deterministic per seed.
    Reads, updates, scans, and RMWs always target live records; inserts
    always use fresh record indices and extend the population. *)

val serving_mixes : records:int -> ops:int -> (string * spec) list
(** The serving-engine mixes at the given scale: [read-latest] (the
    paper preset), [scan-heavy], [rmw-heavy], and [hot-storm]. *)

val pp_spec : spec Fmt.t
