(** The key-value store harness of Section VII-A: a driver mapping
    8-byte keys to 8-byte values through a pluggable index structure,
    loading an initial population and replaying a YCSB operation stream,
    measuring the run phase in the timing model.  {!run_map} is the
    one-shard, batch-1, cache-off cell of {!Driver}. *)

module Cpu = Nvml_arch.Cpu
module Runtime = Nvml_runtime.Runtime
module Workload = Nvml_ycsb.Workload

type counter_delta = Driver.counter_delta = {
  dynamic_checks : int;
  abs_to_rel : int;
  rel_to_abs : int;
  volatile_escapes : int;
}

type persist_tally = {
  model : Nvml_runtime.Persist.model;
  drains : int;
  flushes : int;  (** line write-backs charged by the drains *)
  fences : int;
  buffered : int;  (** distinct dirty words buffered across the run *)
}

type result = {
  benchmark : string;
  mode : Runtime.mode;
  load : Cpu.snapshot;  (** load-phase deltas *)
  run : Cpu.snapshot;  (** run-phase deltas — what the figures report *)
  attr : Cpu.attribution;  (** run-phase cycle attribution *)
  checks : counter_delta;  (** run-phase conversion/check counts *)
  hits : int;
  misses : int;
  oplat : Nvml_runtime.Oplat.t;
      (** per-op run-phase latencies: every get/put/insert (or LL scan
          iteration) bracketed with cycle stamps, decomposed into
          base/check/translation/stall/media components, slowest ops
          retained with spans *)
  persist : persist_tally;
      (** whole-run drain traffic of the persistency model (all zero
          under [Eager]) *)
}

val pool_size : int

val run_map :
  Nvml_structures.Intf.ordered_map ->
  mode:Runtime.mode ->
  ?cfg:Nvml_arch.Config.t ->
  ?persist:Nvml_runtime.Persist.model ->
  Workload.spec ->
  result
(** [persist] (default [Eager]) selects the machine's persistency
    model.  Under a relaxed model every run-phase operation is an epoch
    boundary candidate and the run ends with a full drain, so the
    measured cycles include the model's flush+fence µ-events. *)

val run_ll :
  mode:Runtime.mode ->
  ?cfg:Nvml_arch.Config.t ->
  ?persist:Nvml_runtime.Persist.model ->
  ?nodes:int ->
  ?iterations:int ->
  unit ->
  result
(** The separate LL harness: build [nodes] nodes, iterate accumulating
    the values. *)

val run_benchmark :
  string ->
  mode:Runtime.mode ->
  ?cfg:Nvml_arch.Config.t ->
  ?persist:Nvml_runtime.Persist.model ->
  Workload.spec ->
  result
(** Run a Table III benchmark by name ("LL" routes to {!run_ll}). *)

val structures : string list
(** Every name {!run_benchmark} accepts: LL and the registry's maps. *)
