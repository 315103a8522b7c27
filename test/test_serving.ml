(* Tests for the serving engine: shard determinism under a parallel
   runner, front-cache write-back correctness against a no-cache
   reference, closed-form cache behaviour on the hot-key-storm mix, and
   the batching cost model. *)

module Serving = Nvml_kvstore.Serving
module Workload = Nvml_ycsb.Workload
module Runtime = Nvml_runtime.Runtime
module Oplat = Nvml_runtime.Oplat
module Latency = Nvml_telemetry.Latency
module Cpu = Nvml_arch.Cpu
module Pool = Nvml_exec.Pool
module Harness = Nvml_kvstore.Harness
module Driver = Nvml_kvstore.Driver

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let mix name ~records ~ops =
  List.assoc name (Workload.serving_mixes ~records ~ops)

let run ?par ?(timing = false) ?(structure = "Hash") ?(shards = 8)
    ?(batch = 32) ?(front_cache = 0) spec =
  Runtime.with_default_timing timing @@ fun () ->
  Serving.run ?par
    (Serving.default_config ~structure ~mode:Runtime.Hw ~shards ~batch
       ~front_cache spec)

(* Serialize everything deterministic about a report — the "metrics
   bytes" a --jobs N and --jobs 1 run must agree on. *)
let metrics_bytes (t : Serving.t) =
  let b = Buffer.create 256 in
  let s = Latency.summary (Oplat.latency t.Serving.oplat) in
  Printf.bprintf b "ops=%d found=%d missing=%d size=%d digest=%Lx\n"
    t.Serving.ops t.Serving.found t.Serving.missing t.Serving.size
    t.Serving.digest;
  Printf.bprintf b "cycles=%d/%d load=%d\n" t.Serving.run_cycles_max
    t.Serving.run_cycles_total t.Serving.load_cycles_max;
  Printf.bprintf b "cache=%d/%d/%d/%d/%d\n" t.Serving.cache.Serving.hits
    t.Serving.cache.Serving.misses t.Serving.cache.Serving.writebacks
    t.Serving.cache.Serving.evictions t.Serving.cache.Serving.scan_flushes;
  Printf.bprintf b "lat=%d/%d/%d/%d/%d\n" s.Latency.p50 s.Latency.p90
    s.Latency.p99 s.Latency.p999 s.Latency.max;
  List.iter
    (fun (sh : Serving.shard) ->
      Printf.bprintf b "shard%d=%d/%d/%d/%Lx\n" sh.Serving.index
        sh.Serving.records sh.Serving.ops sh.Serving.run.Cpu.cycles
        sh.Serving.digest)
    t.Serving.per_shard;
  Buffer.contents b

(* --shards 8 --jobs 4 must produce the same metrics bytes as --jobs 1,
   for every mix (shard cells are share-nothing; the merge is in
   shard-index order). *)
let test_jobs_determinism () =
  List.iter
    (fun (name, spec) ->
      let seq = run ~shards:8 ~front_cache:512 spec in
      let pool = Pool.create ~jobs:4 () in
      let par =
        Fun.protect
          ~finally:(fun () -> Pool.shutdown pool)
          (fun () -> run ~par:(Pool.run pool) ~shards:8 ~front_cache:512 spec)
      in
      check_string
        (name ^ ": jobs 4 == jobs 1 metrics bytes")
        (metrics_bytes seq) (metrics_bytes par))
    (Workload.serving_mixes ~records:4000 ~ops:10_000)

(* A front-cache run must leave the persistent structures with exactly
   the contents of a cache-disabled reference run: every dirty entry is
   written back before detach.  The digest is order-independent, so it
   ignores the allocation reordering write-back introduces. *)
let test_writeback_matches_reference () =
  List.iter
    (fun (name, spec) ->
      let cached = run ~shards:4 ~front_cache:1024 spec in
      let plain = run ~shards:4 ~front_cache:0 spec in
      check_bool (name ^ ": digests equal") true
        (cached.Serving.digest = plain.Serving.digest);
      check_int (name ^ ": sizes equal") plain.Serving.size
        cached.Serving.size;
      check_int (name ^ ": found equal") plain.Serving.found
        cached.Serving.found;
      check_int (name ^ ": missing equal") plain.Serving.missing
        cached.Serving.missing)
    (Workload.serving_mixes ~records:4000 ~ops:10_000)

(* Hot-key-storm: the hot set receives hot_op_fraction of the draws and
   stays resident (the cache holds far more entries than hot keys), so
   the hit rate must reach at least the closed-form expected rate minus
   a compulsory-miss allowance for first touches. *)
let test_hot_storm_hit_rate () =
  let spec = mix "hot-storm" ~records:4000 ~ops:20_000 in
  let t = run ~shards:4 ~front_cache:512 spec in
  let c = t.Serving.cache in
  check_bool "cache saw traffic" true (c.Serving.hits + c.Serving.misses > 0);
  let expected = spec.Workload.hot_op_fraction *. 0.97 in
  let rate = Serving.hit_rate c in
  if rate < expected then
    Alcotest.failf "hit rate %.3f below closed-form floor %.3f" rate expected

(* Batching amortizes the runtime-entry cost: with the same workload,
   batch 32 must finish in strictly fewer service cycles than batch 1,
   and throughput must rise. *)
let test_batching_amortizes () =
  let spec = mix "read-latest" ~records:2000 ~ops:10_000 in
  let b1 = run ~shards:4 ~batch:1 spec in
  let b32 = run ~shards:4 ~batch:32 spec in
  check_bool "batch 32 uses fewer service cycles" true
    (b32.Serving.run_cycles_max < b1.Serving.run_cycles_max);
  check_bool "batch 32 has higher throughput" true
    (Serving.ops_per_sec b32 > Serving.ops_per_sec b1)

(* The shard function must cover all shards and preserve every record:
   per-shard record counts sum to the population and no shard is
   empty at these sizes. *)
let test_shard_balance () =
  let spec = mix "read-latest" ~records:4000 ~ops:4000 in
  let t = run ~shards:8 spec in
  check_int "eight shards" 8 (List.length t.Serving.per_shard);
  let records =
    List.fold_left
      (fun acc (s : Serving.shard) -> acc + s.Serving.records)
      0 t.Serving.per_shard
  in
  check_int "records partitioned exactly" 4000 records;
  List.iter
    (fun (s : Serving.shard) ->
      check_bool "shard non-empty" true (s.Serving.records > 0);
      check_int "shard routing stable" s.Serving.index
        (Driver.shard_of_key ~shards:8
           (Workload.key_of_index
              (* any record this shard loaded *)
              (let r = ref (-1) in
               for i = 0 to 3999 do
                 if !r < 0
                    && Driver.shard_of_key ~shards:8 (Workload.key_of_index i)
                       = s.Serving.index
                 then r := i
               done;
               !r))))
    t.Serving.per_shard

(* Scans observe values written through the cache: the scan path
   flushes dirty entries before reading around the cache, so a
   scan-heavy run with cache on finds exactly what the no-cache run
   finds (already covered by found-equality above) and records scan
   flushes. *)
let test_scan_flushes_dirty () =
  let spec = mix "scan-heavy" ~records:2000 ~ops:10_000 in
  let t = run ~shards:4 ~front_cache:512 spec in
  check_bool "scans triggered dirty flushes" true
    (t.Serving.cache.Serving.scan_flushes > 0);
  check_bool "writebacks happened" true
    (t.Serving.cache.Serving.writebacks > 0)

(* Golden pins: the metrics bytes of the shard cell across shard count,
   batch size, front cache and the two mixes that exercise scan sub-gets
   and read-modify-writes, on both cores.  Pinned as MD5 digests of
   [metrics_bytes]. *)
let golden =
  [
    (* mix, shards, batch, front cache, cycle-accurate, md5 *)
    ("scan-heavy", 1, 1, 0, false, "b8bf008f8336ea6ee7ab1b881fc55191");
    ("scan-heavy", 1, 1, 0, true, "21c22a42322c006080474525f188de87");
    ("scan-heavy", 1, 1, 256, false, "4c91ebd7fc57aeca32000f902af46775");
    ("scan-heavy", 1, 1, 256, true, "71bb7a0d451afc93d67a1f0040b1fced");
    ("scan-heavy", 1, 8, 0, false, "4b70356dddc4850968e9b26e21c36f51");
    ("scan-heavy", 1, 8, 0, true, "3c2ec059f5ed3c1d017493ee71e21857");
    ("scan-heavy", 1, 8, 256, false, "f0c78871405f399e4fef484ef70b5e8d");
    ("scan-heavy", 1, 8, 256, true, "80e70c2e8ff0ce271a88d375a38bf4bc");
    ("scan-heavy", 4, 1, 0, false, "a568fad391b3f15a16357781357aff17");
    ("scan-heavy", 4, 1, 0, true, "9c6c9ec2ad596aa00f70f0f870db4885");
    ("scan-heavy", 4, 1, 256, false, "8c93c3b0c5533ca49fba80ade37bae75");
    ("scan-heavy", 4, 1, 256, true, "a403006103cec1d8e75bc20b8fd8cd90");
    ("scan-heavy", 4, 8, 0, false, "af41c5a7dadcff777ba0b5cb78099821");
    ("scan-heavy", 4, 8, 0, true, "84b41998fb2ec6aaa9ceffad3e8631bd");
    ("scan-heavy", 4, 8, 256, false, "1335a561937df3077d3cc39909f337cf");
    ("scan-heavy", 4, 8, 256, true, "1d211e2b654535eb4c9bcdee5330d173");
    ("rmw-heavy", 1, 1, 0, false, "813484f0da51d6893d88632736b45ca2");
    ("rmw-heavy", 1, 1, 0, true, "d07fd7f4733f51776850e25fb9979756");
    ("rmw-heavy", 1, 1, 256, false, "69d80ea3d08f30ce8ef9f3f0165f975c");
    ("rmw-heavy", 1, 1, 256, true, "561c550c626a602489105353426c7d17");
    ("rmw-heavy", 1, 8, 0, false, "c6087e45062f00e778a64d2164b429af");
    ("rmw-heavy", 1, 8, 0, true, "6ed2d0d191e96b5e101a4d9c168413b2");
    ("rmw-heavy", 1, 8, 256, false, "eb362cab9dd45af30796a07d0cba34c5");
    ("rmw-heavy", 1, 8, 256, true, "421af2eac27675c1a35196d77e8e67d7");
    ("rmw-heavy", 4, 1, 0, false, "ddf349e52649b46da2aa0b2e55bf3dd0");
    ("rmw-heavy", 4, 1, 0, true, "6cb3f97a1263a5a5630cf769f3af8c2c");
    ("rmw-heavy", 4, 1, 256, false, "6c672769472a6bf5c184a663801f925f");
    ("rmw-heavy", 4, 1, 256, true, "e543000897a2401f5c6c7684a17146d1");
    ("rmw-heavy", 4, 8, 0, false, "0031b074e138417492ea5cf44d5e87ef");
    ("rmw-heavy", 4, 8, 0, true, "e9902661a8bf0cf9545ee80658f466af");
    ("rmw-heavy", 4, 8, 256, false, "675fabe09fdd6cc3c7ad528e723371a6");
    ("rmw-heavy", 4, 8, 256, true, "6a27519a8c44aa0792593a52a02f5a38");
  ]

let test_golden_pins () =
  List.iter
    (fun (name, shards, batch, front_cache, timing, want) ->
      let t =
        run ~timing ~shards ~batch ~front_cache
          (mix name ~records:1000 ~ops:2000)
      in
      check_string
        (Printf.sprintf "%s shards %d batch %d cache %d %s" name shards batch
           front_cache
           (if timing then "cycle" else "fast"))
        want
        (Digest.to_hex (Digest.string (metrics_bytes t))))
    golden

(* A one-shard, batch-1, cache-off serving cell is the paper harness plus
   the serving dispatch shell: 4 instrs per op and 40 per batch in place
   of the harness's 10 per op, i.e. exactly 34 more per request, with the
   same lookups and the same load phase. *)
let test_one_shard_is_harness () =
  let spec = mix "read-latest" ~records:2000 ~ops:5000 in
  let h =
    Runtime.with_default_timing false (fun () ->
        Harness.run_benchmark "Hash" ~mode:Runtime.Hw spec)
  in
  let t = run ~shards:1 ~batch:1 spec in
  let s = List.hd t.Serving.per_shard in
  check_int "instrs = harness + 34/op"
    (h.Harness.run.Cpu.instrs + (34 * spec.Workload.operation_count))
    s.Serving.run.Cpu.instrs;
  check_int "found = harness hits" h.Harness.hits t.Serving.found;
  check_int "missing = harness misses" h.Harness.misses t.Serving.missing;
  check_int "load instrs equal" h.Harness.load.Cpu.instrs
    s.Serving.load.Cpu.instrs

(* The front cache is split evenly across shards, so a cache smaller
   than the shard count cannot give every shard an entry: it is
   rejected rather than silently rounded up.  A cache of exactly one
   entry per shard is accepted. *)
let test_front_cache_below_shards () =
  let spec = mix "read-latest" ~records:200 ~ops:200 in
  Alcotest.check_raises "front_cache 3 < shards 8"
    (Invalid_argument "Serving.run: front_cache must be 0 or >= shards")
    (fun () -> ignore (run ~shards:8 ~front_cache:3 spec));
  let t = run ~shards:8 ~front_cache:8 spec in
  check_int "front_cache = shards runs" 200 t.Serving.ops

let () =
  Alcotest.run "serving"
    [
      ( "determinism",
        [
          Alcotest.test_case "jobs 4 == jobs 1" `Quick test_jobs_determinism;
          Alcotest.test_case "shard balance" `Quick test_shard_balance;
          Alcotest.test_case "golden pins" `Quick test_golden_pins;
          Alcotest.test_case "one shard is the harness" `Quick
            test_one_shard_is_harness;
        ] );
      ( "front cache",
        [
          Alcotest.test_case "write-back matches reference" `Quick
            test_writeback_matches_reference;
          Alcotest.test_case "hot-storm hit rate" `Quick
            test_hot_storm_hit_rate;
          Alcotest.test_case "scan flushes dirty" `Quick
            test_scan_flushes_dirty;
          Alcotest.test_case "below shard count rejected" `Quick
            test_front_cache_below_shards;
        ] );
      ( "batching",
        [
          Alcotest.test_case "amortizes entry cost" `Quick
            test_batching_amortizes;
        ] );
    ]
