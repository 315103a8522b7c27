(* The serving engine: the Section VII harness grown to production
   shape.  Records are sharded across many pools by key hash — each
   shard is an independent simulation cell with its own runtime, pool,
   allocator and superblock, so shards are share-nothing and a parallel
   runner ([Pool.run] from bench) produces results byte-identical to a
   sequential one.  A batching front-end amortizes runtime entry across
   a batch of requests, and an optional bounded-LRU DRAM front cache
   absorbs reads and write-backs dirty entries to NVM in the style of
   NVCache: hits never touch the persistent structure, evictions and
   scans flush dirty values back, and a final drain before detach makes
   the pool contents identical to a cache-disabled run. *)

module Cpu = Nvml_arch.Cpu
module Config = Nvml_arch.Config
module Runtime = Nvml_runtime.Runtime
module Oplat = Nvml_runtime.Oplat
module Intf = Nvml_structures.Intf
module Registry = Nvml_structures.Registry
module Workload = Nvml_ycsb.Workload
module Distribution = Nvml_ycsb.Distribution
module Telemetry = Nvml_telemetry.Telemetry

(* The simulated clock, for converting deterministic cycle counts into
   an ops/sec figure: Config.default models DRAM at 120 cycles = 45 ns,
   i.e. a ~2.67 GHz core. *)
let clock_hz = 120.0 /. 45e-9

type config = {
  structure : string;
  mode : Runtime.mode;
  spec : Workload.spec;
  shards : int;
  batch : int;
  front_cache : int; (* total cache entries across all shards; 0 = off *)
  cfg : Config.t;
}

let default_config ?(structure = "Hash") ?(mode = Runtime.Hw)
    ?(cfg = Config.default) ?(shards = 1) ?(batch = 1) ?(front_cache = 0) spec
    =
  { structure; mode; spec; shards; batch; front_cache; cfg }

type cache_stats = Driver.cache_stats = {
  hits : int;
  misses : int;
  writebacks : int;
  evictions : int;
  scan_flushes : int;
}

let add_cache_stats a b =
  {
    hits = a.hits + b.hits;
    misses = a.misses + b.misses;
    writebacks = a.writebacks + b.writebacks;
    evictions = a.evictions + b.evictions;
    scan_flushes = a.scan_flushes + b.scan_flushes;
  }

let hit_rate c =
  let total = c.hits + c.misses in
  if total = 0 then 0.0 else float_of_int c.hits /. float_of_int total

type shard = {
  index : int;
  records : int; (* records loaded into this shard *)
  ops : int; (* requests dispatched to this shard *)
  size : int; (* final structure size *)
  found : int;
  missing : int;
  load : Cpu.snapshot;
  run : Cpu.snapshot;
  cache : cache_stats;
  digest : int64; (* order-independent content digest *)
  oplat : Oplat.t;
}

type t = {
  structure : string;
  mode : Runtime.mode;
  spec : Workload.spec;
  shards : int;
  batch : int;
  front_cache : int;
  per_shard : shard list; (* in shard-index order *)
  records : int;
  ops : int; (* total requests (scan sub-gets count individually) *)
  found : int;
  missing : int;
  size : int;
  load_cycles_max : int;
  run_cycles_max : int; (* service time: shards run in parallel *)
  run_cycles_total : int;
  cache : cache_stats;
  digest : int64;
  oplat : Oplat.t; (* merged across shards, in shard order *)
}

let ops_per_sec t =
  if t.run_cycles_max = 0 then 0.0
  else float_of_int t.ops /. (float_of_int t.run_cycles_max /. clock_hz)

(* --- one shard ----------------------------------------------------------- *)

(* Order-independent digest of the structure contents: write-back
   reorders NVM allocations between cache and no-cache runs (and hash
   iteration order with them), so the contents check must not depend on
   iteration or allocation order.  Summing a scrambled per-entry hash
   is commutative and keeps collisions vanishingly unlikely. *)
let entry_hash ~key ~value =
  Distribution.scramble (Int64.logxor key (Distribution.scramble value))

let run_shard (c : config) (module M : Intf.ORDERED_MAP) ~shard ~loads ~ops ()
    : shard =
  let rt = Runtime.create ~cfg:c.cfg ~mode:c.mode () in
  let region =
    Driver.region rt c.mode ~pool:(Printf.sprintf "kv.shard%02d" shard)
  in
  let m = M.create rt region in
  let cell =
    Driver.run_cell Driver.serving_shell (module M) rt m
      ~cell:(Printf.sprintf "serving/%s/shard%02d" M.name shard)
      ~batch:c.batch ~cache:(c.front_cache / c.shards) ~loads ~ops
  in
  let size = M.size m in
  let digest = ref 0L in
  M.iter m (fun ~key ~value -> digest := Int64.add !digest (entry_hash ~key ~value));
  (match region with
  | Runtime.Pool_region id -> Runtime.detach_pool rt id
  | Runtime.Dram_region -> ());
  Runtime.publish_stats rt;
  {
    index = shard;
    records = Array.length loads;
    ops = Driver.length ops;
    size;
    found = cell.Driver.found;
    missing = cell.Driver.missing;
    load = cell.Driver.phases.Driver.load;
    run = cell.Driver.phases.Driver.run;
    cache = cell.Driver.cache;
    digest = !digest;
    oplat = cell.Driver.oplat;
  }

(* --- the engine ---------------------------------------------------------- *)

let inline_runner fs = List.map (fun f -> f ()) fs

let c_hit = Telemetry.counter "serving.cache.hit"
let c_miss = Telemetry.counter "serving.cache.miss"
let c_writeback = Telemetry.counter "serving.cache.writeback"
let c_evict = Telemetry.counter "serving.cache.evict"
let c_scan_flush = Telemetry.counter "serving.cache.scan_flush"
let c_ops = Telemetry.counter "serving.ops"

(* Run the configured serving workload.  [par] runs the share-nothing
   shard cells — [Pool.run pool] in bench, sequential by default; the
   merge below consumes results in shard-index (= submission) order, so
   the report is byte-identical either way. *)
let run ?(par = inline_runner) (c : config) : t =
  if c.shards < 1 then invalid_arg "Serving.run: shards must be >= 1";
  if c.batch < 1 then invalid_arg "Serving.run: batch must be >= 1";
  if c.front_cache < 0 then invalid_arg "Serving.run: front_cache must be >= 0";
  if c.front_cache > 0 && c.front_cache < c.shards then
    invalid_arg "Serving.run: front_cache must be 0 or >= shards";
  let (module M : Intf.ORDERED_MAP) = Registry.find_map c.structure in
  let loads, ops = Driver.partition ~shards:c.shards c.spec in
  let thunks =
    List.init c.shards (fun s ->
        fun () -> run_shard c (module M) ~shard:s ~loads:loads.(s) ~ops:ops.(s) ())
  in
  let per_shard = par thunks in
  let merged_ol = Oplat.create ~cell:(Printf.sprintf "serving/%s" M.name) () in
  List.iter (fun (s : shard) -> Oplat.merge_into ~dst:merged_ol s.oplat) per_shard;
  let sum f = List.fold_left (fun acc (s : shard) -> acc + f s) 0 per_shard in
  let maxi f =
    List.fold_left (fun acc (s : shard) -> max acc (f s)) 0 per_shard
  in
  let cache =
    List.fold_left
      (fun acc (s : shard) -> add_cache_stats acc s.cache)
      Driver.zero_cache_stats per_shard
  in
  let digest =
    List.fold_left
      (fun acc (s : shard) -> Int64.add acc s.digest)
      0L per_shard
  in
  let t =
    {
      structure = M.name;
      mode = c.mode;
      spec = c.spec;
      shards = c.shards;
      batch = c.batch;
      front_cache = c.front_cache;
      per_shard;
      records = sum (fun s -> s.records);
      ops = sum (fun s -> s.ops);
      found = sum (fun s -> s.found);
      missing = sum (fun s -> s.missing);
      size = sum (fun s -> s.size);
      load_cycles_max = maxi (fun s -> s.load.Cpu.cycles);
      run_cycles_max = maxi (fun s -> s.run.Cpu.cycles);
      run_cycles_total = sum (fun s -> s.run.Cpu.cycles);
      cache;
      digest;
      oplat = merged_ol;
    }
  in
  if Telemetry.enabled () then begin
    Telemetry.add c_hit cache.hits;
    Telemetry.add c_miss cache.misses;
    Telemetry.add c_writeback cache.writebacks;
    Telemetry.add c_evict cache.evictions;
    Telemetry.add c_scan_flush cache.scan_flushes;
    Telemetry.add c_ops t.ops
  end;
  t
