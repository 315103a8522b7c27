(** The KV driver: the one op loop behind the Section VII-A harness
    ({!Harness.run_map}, a one-shard, batch-1, cache-off cell) and the
    serving shards ({!Serving.run}).  A request stream is packed two
    ints per request: [(record_index lsl 3) lor tag] and an auxiliary
    word (put value, rmw delta, scan sub-get flush flag). *)

module Runtime = Nvml_runtime.Runtime

type shell
(** The driver's dispatch shell: its key-buffer site and its cost. *)

val harness_shell : shell
(** Site [harness.driver]; 10 instrs per request, none per batch. *)

val serving_shell : shell
(** Site [serving.driver]; 4 instrs per request, 40 per batch. *)

val pool_size : int

val region : Runtime.t -> Runtime.mode -> pool:string -> Runtime.region
(** DRAM in the Volatile mode, else a fresh [pool_size] pool. *)

val shard_of_key : shards:int -> int64 -> int
(** The shard a key lives on: [scramble key mod shards]. *)

val partition :
  shards:int -> Nvml_ycsb.Workload.spec -> int array array * int array array
(** Per-shard load populations (record indices) and packed op streams.
    A scan becomes one sub-get per record; the first sub-get a scan
    sends to a shard carries the flush flag. *)

val stream : Nvml_ycsb.Workload.spec -> int array
(** The one-shard packed op stream. *)

val length : int array -> int
(** Requests in a packed stream. *)

val apply_at :
  (module Nvml_structures.Intf.ORDERED_MAP with type t = 'm) ->
  'm -> int array -> int -> unit
(** [apply_at map m ops j] runs request [j] of [ops] — get, put/insert,
    scan sub-get or rmw — through the per-request [apply] of the cells,
    uncached, with its key recomputed from its record index. *)

type counter_delta = {
  dynamic_checks : int;
  abs_to_rel : int;
  rel_to_abs : int;
  volatile_escapes : int;
}

type phases = {
  load : Nvml_arch.Cpu.snapshot;  (** absolute, at the end of the load *)
  run : Nvml_arch.Cpu.snapshot;  (** run-phase deltas *)
  attr : Nvml_arch.Cpu.attribution;  (** run-phase cycle attribution *)
  checks : counter_delta;  (** run-phase conversion/check counts *)
}

val phases :
  Runtime.t -> records:int -> ops:int -> load:(unit -> unit) ->
  run:(unit -> 'a) -> phases * 'a
(** Measure a load phase and a run phase, each closing its persistency
    epoch before its boundary. *)

type cache_stats = {
  hits : int;
  misses : int;
  writebacks : int;  (** dirty entries written back (evict/scan/drain) *)
  evictions : int;
  scan_flushes : int;  (** scans that triggered a dirty flush *)
}

val zero_cache_stats : cache_stats

type cell = {
  phases : phases;
  found : int;
  missing : int;
  cache : cache_stats;
  oplat : Nvml_runtime.Oplat.t;  (** per-request run-phase latencies *)
}

val run_cell :
  shell ->
  (module Nvml_structures.Intf.ORDERED_MAP with type t = 'm) ->
  Runtime.t -> 'm -> cell:string -> batch:int -> cache:int ->
  loads:int array -> ops:int array -> cell
(** Replay [ops] against a freshly created map: stage the keys in a
    DRAM buffer, load [loads], then run the requests [batch] per runtime
    entry through a [cache]-entry front cache (0 = off), each request
    bracketed in the [cell] latency recorder and followed by a
    persistency-epoch boundary. *)
