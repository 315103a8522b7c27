(* The key-value store harness of Section VII-A: a mapcli-style driver
   that loads an initial population into one index structure, then
   replays a YCSB operation stream, measuring the run phase in the
   timing model.  The op loop is the one-shard, batch-1, cache-off cell
   of [Driver]. *)

module Cpu = Nvml_arch.Cpu
module Runtime = Nvml_runtime.Runtime
module Intf = Nvml_structures.Intf
module Linked_list = Nvml_structures.Linked_list
module Workload = Nvml_ycsb.Workload
module Oplat = Nvml_runtime.Oplat

type counter_delta = Driver.counter_delta = {
  dynamic_checks : int;
  abs_to_rel : int; (* va2ra conversions *)
  rel_to_abs : int; (* ra2va conversions *)
  volatile_escapes : int;
}

type persist_tally = {
  model : Nvml_runtime.Persist.model;
  drains : int;
  flushes : int; (* line write-backs charged by the drains *)
  fences : int;
  buffered : int; (* distinct dirty words buffered across the run *)
}

type result = {
  benchmark : string;
  mode : Runtime.mode;
  load : Cpu.snapshot; (* load-phase deltas *)
  run : Cpu.snapshot; (* run-phase deltas — what the figures report *)
  attr : Cpu.attribution; (* run-phase cycle attribution *)
  checks : counter_delta; (* run-phase conversion/check counts *)
  hits : int; (* GETs that found their key (sanity) *)
  misses : int;
  oplat : Oplat.t; (* per-op run-phase latency distribution *)
  persist : persist_tally; (* whole-run drain traffic (zero under eager) *)
}

let persist_tally rt =
  let p = Runtime.persist rt in
  let module P = Nvml_runtime.Persist in
  {
    model = P.model p;
    drains = P.drains p;
    flushes = P.flushes p;
    fences = P.fences p;
    buffered = P.stores_buffered p;
  }

let finish rt ~benchmark ~mode (p : Driver.phases) ~hits ~misses oplat =
  Runtime.publish_stats rt;
  {
    benchmark;
    mode;
    load = p.load;
    run = p.run;
    attr = p.attr;
    checks = p.checks;
    hits;
    misses;
    oplat;
    persist = persist_tally rt;
  }

let pool_size = Driver.pool_size

let run_map (module M : Intf.ORDERED_MAP) ~mode ?(cfg = Nvml_arch.Config.default)
    ?(persist = Nvml_runtime.Persist.Eager) (spec : Workload.spec) : result =
  let rt = Runtime.create ~cfg ~mode ~persist () in
  let m = M.create rt (Driver.region rt mode ~pool:"kv") in
  let loads, ops = Driver.partition ~shards:1 spec in
  let c =
    Driver.run_cell Driver.harness_shell (module M) rt m
      ~cell:(M.name ^ "/" ^ Runtime.mode_name mode)
      ~batch:1 ~cache:0 ~loads:loads.(0) ~ops:ops.(0)
  in
  finish rt ~benchmark:M.name ~mode c.Driver.phases ~hits:c.Driver.found
    ~misses:c.Driver.missing c.Driver.oplat

(* The separate LL harness: build [nodes] nodes of two pointers and a
   16-byte value, then iterate the list accumulating the values. *)
let run_ll ~mode ?(cfg = Nvml_arch.Config.default)
    ?(persist = Nvml_runtime.Persist.Eager) ?(nodes = 10_000)
    ?(iterations = 10) () : result =
  let rt = Runtime.create ~cfg ~mode ~persist () in
  let l = Linked_list.create rt (Driver.region rt mode ~pool:"kv") in
  let rng = Random.State.make [| 7 |] in
  let cpu = Runtime.cpu rt in
  let ol = Oplat.create ~cell:("LL/" ^ Runtime.mode_name mode) () in
  let p, () =
    Driver.phases rt ~records:nodes ~ops:iterations
      ~load:(fun () ->
        for _ = 1 to nodes do
          Linked_list.append l
            ~v0:(Random.State.int64 rng Int64.max_int)
            ~v1:(Random.State.int64 rng Int64.max_int)
        done)
      ~run:(fun () ->
        for _ = 1 to iterations do
          Oplat.op_begin ol cpu;
          ignore (Linked_list.iterate_sum l);
          Runtime.persist_op_boundary rt;
          Oplat.op_end ol cpu "scan"
        done)
  in
  finish rt ~benchmark:"LL" ~mode p ~hits:nodes ~misses:0 ol

(* Run a named benchmark (Table III) in a mode. *)
let run_benchmark name ~mode ?cfg ?persist (spec : Workload.spec) : result =
  if String.lowercase_ascii name = "ll" then
    run_ll ~mode ?cfg ?persist ~nodes:spec.Workload.record_count ()
  else run_map (Nvml_structures.Registry.find_map name) ~mode ?cfg ?persist spec

let structures = "LL" :: Nvml_structures.Registry.map_names
