(* The KV driver: the one op loop behind both the Section VII-A harness
   and the serving shards, in the mold of the PMDK mapcli example.  A
   cell maps 8-byte keys to 8-byte values through a pluggable index
   structure: it stages the requests' keys in a DRAM buffer, loads an
   initial population, then replays a packed YCSB request stream in
   batches, measuring the run phase in the timing model.

   The driver itself is ordinary volatile application code: its key
   buffer lives in simulated DRAM and is read on every operation, so
   volatile accesses interleave with the library's persistent accesses
   exactly as in a real run.  An optional bounded-LRU DRAM front cache
   absorbs reads and writes back dirty entries in the style of NVCache. *)

module Layout = Nvml_simmem.Layout
module Mem = Nvml_simmem.Mem
module Xlate = Nvml_core.Xlate
module Cpu = Nvml_arch.Cpu
module Runtime = Nvml_runtime.Runtime
module Site = Nvml_runtime.Site
module Oplat = Nvml_runtime.Oplat
module Intf = Nvml_structures.Intf
module Workload = Nvml_ycsb.Workload
module Distribution = Nvml_ycsb.Distribution
module Telemetry = Nvml_telemetry.Telemetry

(* The driver shell around the library calls: the site its key-buffer
   reads are charged to (static — the driver is compiled with the
   application, where inference sees the buffer's allocation), the
   dispatch cost each request pays on top of its library work, and the
   runtime-entry cost (argument marshalling, checkpoint bookkeeping)
   paid once per batch. *)
type shell = { site : Site.t; op_instrs : int; batch_instrs : int }

let harness_shell =
  { site = Site.make ~static:true "harness.driver"; op_instrs = 10; batch_instrs = 0 }

let serving_shell =
  { site = Site.make ~static:true "serving.driver"; op_instrs = 4; batch_instrs = 40 }

let s_cache = Site.make ~static:true "serving.cache"

let pool_size = 1 lsl 26 (* frames are lazily backed, so roomy pools are free *)

let region rt mode ~pool =
  match mode with
  | Runtime.Volatile -> Runtime.Dram_region
  | _ -> Runtime.Pool_region (Runtime.create_pool rt ~name:pool ~size:pool_size)

(* --- the packed request stream ------------------------------------------ *)

let tag_read = 0
let tag_update = 1
let tag_insert = 2
let tag_scan = 3
let tag_rmw = 4

let tag_names = [| "get"; "put"; "insert"; "scan"; "rmw" |]

(* Growable int buffer for the op streams: two words per request —
   [(record_index lsl 3) lor tag] and an auxiliary word — instead of a
   materialized constructor list, which at tens of millions of ops
   would dominate the heap. *)
module Buf = struct
  type t = { mutable a : int array; mutable len : int }

  let create () = { a = Array.make 64 0; len = 0 }

  let push b x =
    if b.len = Array.length b.a then begin
      let a' = Array.make (2 * Array.length b.a) 0 in
      Array.blit b.a 0 a' 0 b.len;
      b.a <- a'
    end;
    b.a.(b.len) <- x;
    b.len <- b.len + 1

  let contents b = Array.sub b.a 0 b.len
end

(* Record keys are already splitmix-scrambled; re-scramble before
   taking the residue so the shard function is decorrelated from any
   other use of the key bits. *)
let shard_of_key ~shards key =
  if shards <= 1 then 0
  else
    Int64.to_int
      (Int64.rem
         (Int64.logand (Distribution.scramble key) Int64.max_int)
         (Int64.of_int shards))

(* Partition the load population and the operation stream across
   shards.  Scans become per-shard sub-gets; the first sub-get a scan
   sends to a shard carries a flush flag (aux bit 0) so the shard's
   front cache writes dirty entries back once per scan before the scan
   reads around it. *)
let partition ~shards (spec : Workload.spec) =
  let shard_of_index i =
    if shards <= 1 then 0 else shard_of_key ~shards (Workload.key_of_index i)
  in
  let loads = Array.init shards (fun _ -> Buf.create ()) in
  for i = 0 to spec.Workload.record_count - 1 do
    Buf.push loads.(shard_of_index i) i
  done;
  let ops = Array.init shards (fun _ -> Buf.create ()) in
  let push_op s tag idx aux =
    Buf.push ops.(s) ((idx lsl 3) lor tag);
    Buf.push ops.(s) aux
  in
  let scan_mark = Array.make shards (-1) in
  let scan_id = ref 0 in
  Workload.iter_idx_ops spec (fun iop ->
      match iop with
      | Workload.IRead i -> push_op (shard_of_index i) tag_read i 0
      | Workload.IUpdate (i, v) -> push_op (shard_of_index i) tag_update i v
      | Workload.IInsert (i, v) -> push_op (shard_of_index i) tag_insert i v
      | Workload.IRmw (i, v) -> push_op (shard_of_index i) tag_rmw i v
      | Workload.IScan (start, len) ->
          incr scan_id;
          for j = start to start + len - 1 do
            let s = shard_of_index j in
            let flush =
              if scan_mark.(s) <> !scan_id then begin
                scan_mark.(s) <- !scan_id;
                1
              end
              else 0
            in
            push_op s tag_scan j flush
          done);
  (Array.map Buf.contents loads, Array.map Buf.contents ops)

let stream spec = (snd (partition ~shards:1 spec)).(0)
let length ops = Array.length ops / 2

(* --- the DRAM front cache ------------------------------------------------ *)

type cache_stats = {
  hits : int;
  misses : int;
  writebacks : int;
  evictions : int;
  scan_flushes : int;
}

let zero_cache_stats =
  { hits = 0; misses = 0; writebacks = 0; evictions = 0; scan_flushes = 0 }

(* A bounded LRU write-back cache in the driver's volatile memory, bound
   to one index structure through its [find] and [write_back].  Entry
   values are mirrored into a simulated-DRAM slab so probes and fills
   are charged DRAM accesses in the timing model; the index structure
   itself is host-side bookkeeping (hash table + intrusive LRU list over
   slots) charged as instructions. *)
module Fcache = struct
  type t = {
    rt : Runtime.t;
    find : int64 -> int64 option;
    write_back : int64 -> int64 -> unit;
    slab : int64; (* simulated DRAM backing the value slots *)
    tbl : (int64, int) Hashtbl.t; (* key -> slot *)
    keys : int64 array;
    vals : int64 array;
    dirty : bool array;
    prev : int array;
    next : int array;
    mutable head : int; (* MRU; -1 when empty *)
    mutable tail : int; (* LRU *)
    mutable size : int;
    mutable hits : int;
    mutable misses : int;
    mutable writebacks : int;
    mutable evictions : int;
    mutable scan_flushes : int;
  }

  let create rt cap ~find ~write_back =
    if cap < 1 then invalid_arg "Fcache.create: capacity must be >= 1";
    {
      rt;
      find;
      write_back;
      slab = Mem.map_fresh (Runtime.mem rt) Layout.Dram (cap * 8);
      tbl = Hashtbl.create (2 * cap);
      keys = Array.make cap 0L;
      vals = Array.make cap 0L;
      dirty = Array.make cap false;
      prev = Array.make cap (-1);
      next = Array.make cap (-1);
      head = -1;
      tail = -1;
      size = 0;
      hits = 0;
      misses = 0;
      writebacks = 0;
      evictions = 0;
      scan_flushes = 0;
    }

  let stats t =
    {
      hits = t.hits;
      misses = t.misses;
      writebacks = t.writebacks;
      evictions = t.evictions;
      scan_flushes = t.scan_flushes;
    }

  (* Intrusive LRU list over slots. *)
  let unlink t slot =
    let p = t.prev.(slot) and n = t.next.(slot) in
    if p >= 0 then t.next.(p) <- n else t.head <- n;
    if n >= 0 then t.prev.(n) <- p else t.tail <- p

  let push_front t slot =
    t.prev.(slot) <- -1;
    t.next.(slot) <- t.head;
    if t.head >= 0 then t.prev.(t.head) <- slot else t.tail <- slot;
    t.head <- slot

  let touch t slot =
    if t.head <> slot then begin
      unlink t slot;
      push_front t slot
    end

  let slot_load t slot =
    ignore (Runtime.load_word t.rt ~site:s_cache t.slab ~off:(slot * 8))

  let slot_store t slot v =
    Runtime.store_word t.rt ~site:s_cache t.slab ~off:(slot * 8) v

  (* Write one dirty slot back to the persistent structure. *)
  let write_back_slot t slot =
    slot_load t slot;
    t.write_back t.keys.(slot) t.vals.(slot);
    t.dirty.(slot) <- false;
    t.writebacks <- t.writebacks + 1

  (* Install [key -> v] in the cache, evicting (and writing back) the
     LRU victim when full. *)
  let install t key v ~dirty =
    Runtime.instr t.rt 2;
    match Hashtbl.find_opt t.tbl key with
    | Some slot ->
        t.vals.(slot) <- v;
        t.dirty.(slot) <- t.dirty.(slot) || dirty;
        slot_store t slot v;
        touch t slot
    | None ->
        let slot =
          if t.size < Array.length t.keys then begin
            let s = t.size in
            t.size <- t.size + 1;
            s
          end
          else begin
            let victim = t.tail in
            if t.dirty.(victim) then write_back_slot t victim;
            Hashtbl.remove t.tbl t.keys.(victim);
            unlink t victim;
            t.evictions <- t.evictions + 1;
            victim
          end
        in
        t.keys.(slot) <- key;
        t.vals.(slot) <- v;
        t.dirty.(slot) <- dirty;
        Hashtbl.replace t.tbl key slot;
        push_front t slot;
        slot_store t slot v

  (* Serve a read: probe the cache, fall back to [find] and install the
     result clean. *)
  let get t key =
    Runtime.instr t.rt 2;
    match Hashtbl.find_opt t.tbl key with
    | Some slot ->
        slot_load t slot;
        touch t slot;
        t.hits <- t.hits + 1;
        Some t.vals.(slot)
    | None ->
        t.misses <- t.misses + 1;
        let r = t.find key in
        (match r with Some v -> install t key v ~dirty:false | None -> ());
        r

  let put t key v = install t key v ~dirty:true

  (* Flush every dirty entry (slot order — deterministic). *)
  let drain t =
    for slot = 0 to t.size - 1 do
      if t.dirty.(slot) then write_back_slot t slot
    done

  let scan_flush t =
    t.scan_flushes <- t.scan_flushes + 1;
    drain t
end

(* --- one request --------------------------------------------------------- *)

type outcome = Found | Missing | Stored

let looked_up = function Some _ -> Found | None -> Missing

(* Reads and writes through the front cache when there is one. *)
let get (type m) ((module M) : (module Intf.ORDERED_MAP with type t = m)) m
    cache key =
  match cache with Some fc -> Fcache.get fc key | None -> M.find m key

let put (type m) ((module M) : (module Intf.ORDERED_MAP with type t = m)) m
    cache key v =
  match cache with Some fc -> Fcache.put fc key v | None -> M.insert m ~key ~value:v

(* What a YCSB request does to a map.  A scan sub-get flushes the front
   cache's dirty entries when it carries the flush flag, then reads
   around the cache. *)
let apply (type m) (map : (module Intf.ORDERED_MAP with type t = m)) (m : m)
    ~cache ~tag ~key ~aux =
  match tag with
  | 0 (* get *) -> looked_up (get map m cache key)
  | 1 | 2 (* put / insert *) ->
      put map m cache key (Int64.of_int aux);
      Stored
  | 3 (* scan sub-get *) ->
      let module M = (val map) in
      (match cache with
      | Some fc when aux land 1 = 1 -> Fcache.scan_flush fc
      | _ -> ());
      looked_up (M.find m key)
  | 4 (* rmw *) ->
      let r = get map m cache key in
      let v0 = match r with Some v -> v | None -> 0L in
      put map m cache key (Int64.add v0 (Int64.of_int aux));
      looked_up r
  | _ -> assert false

(* Request [j] of a packed stream, with the key recomputed from its
   record index: the replay of a driver-less workload. *)
let apply_at map m ops j =
  let w0 = ops.(2 * j) in
  ignore
    (apply map m ~cache:None ~tag:(w0 land 7)
       ~key:(Workload.key_of_index (w0 lsr 3))
       ~aux:ops.((2 * j) + 1))

(* --- one cell ------------------------------------------------------------ *)

type counter_delta = {
  dynamic_checks : int;
  abs_to_rel : int; (* va2ra conversions *)
  rel_to_abs : int; (* ra2va conversions *)
  volatile_escapes : int;
}

let counter_diff (after : Xlate.counters) (before : Xlate.counters) =
  {
    dynamic_checks = after.Xlate.dynamic_checks - before.Xlate.dynamic_checks;
    abs_to_rel = after.Xlate.va2ra - before.Xlate.va2ra;
    rel_to_abs = after.Xlate.ra2va - before.Xlate.ra2va;
    volatile_escapes = after.Xlate.volatile_escapes - before.Xlate.volatile_escapes;
  }

type phases = {
  load : Cpu.snapshot;
  run : Cpu.snapshot;
  attr : Cpu.attribution;
  checks : counter_delta;
}

(* Measure a load phase and a run phase.  Each phase closes its
   persistency epoch before its boundary, so the load's (large, one-off)
   drain bills into the load phase and the run is not over until its
   data is durable. *)
let phases rt ~records ~ops ~load ~run =
  Telemetry.span "kvstore.load" ~args:[ ("records", records) ] load;
  Runtime.persist_sync rt;
  let l = Runtime.snapshot rt and cpu = Runtime.cpu rt in
  let a0 = Cpu.attribution cpu and c0 = Xlate.fresh_counters () in
  Xlate.add_counters c0 (Runtime.counters rt);
  let r = Telemetry.span "kvstore.run" ~args:[ ("ops", ops) ] run in
  Runtime.persist_sync rt;
  ( {
      load = l;
      run = Cpu.diff_snapshot (Runtime.snapshot rt) l;
      attr = Cpu.diff_attribution (Cpu.attribution cpu) a0;
      checks = counter_diff (Runtime.counters rt) c0;
    },
    r )

type cell = {
  phases : phases;
  found : int;
  missing : int;
  cache : cache_stats;
  oplat : Oplat.t;
}

(* Replay [ops] against the freshly created map [m] on [rt].  Under a
   relaxed persistency model every request is an epoch boundary
   candidate, so the measured cycles include the model's flush+fence
   µ-events — durability is weakened, never dropped. *)
let run_cell shell (type m) (map : (module Intf.ORDERED_MAP with type t = m))
    rt (m : m) ~cell ~batch ~cache ~loads ~ops =
  let module M = (val map) in
  let mem = Runtime.mem rt and cpu = Runtime.cpu rt in
  let n_ops = length ops in
  (* Stage each request's primary key in the buffer the driver reads
     back per op. *)
  let key_buf = Mem.map_fresh mem Layout.Dram (max 8 (n_ops * 8)) in
  for j = 0 to n_ops - 1 do
    Mem.write_word mem
      (Int64.add key_buf (Int64.of_int (j * 8)))
      (Workload.key_of_index (ops.(2 * j) lsr 3))
  done;
  let ol = Oplat.create ~cell () in
  let found = ref 0 and missing = ref 0 in
  let load () =
    Array.iter
      (fun i -> M.insert m ~key:(Workload.key_of_index i) ~value:(Int64.of_int i))
      loads
  in
  (* Every request is bracketed with cycle stamps so its latency and
     attribution land in the cell's recorder; the dirty entries of the
     front cache are written back before the run ends. *)
  let run () =
    let cache =
      if cache = 0 then None
      else
        Some
          (Fcache.create rt cache ~find:(M.find m) ~write_back:(fun key value ->
               M.insert m ~key ~value))
    in
    let j = ref 0 in
    while !j < n_ops do
      let batch_end = min n_ops (!j + batch) in
      if shell.batch_instrs > 0 then Runtime.instr rt shell.batch_instrs;
      while !j < batch_end do
        let w0 = ops.(2 * !j) in
        Oplat.op_begin ol cpu;
        let key = Runtime.load_word rt ~site:shell.site key_buf ~off:(!j * 8) in
        Runtime.instr rt shell.op_instrs;
        Oplat.mark ol cpu "driver";
        (match apply map m ~cache ~tag:(w0 land 7) ~key ~aux:ops.((2 * !j) + 1) with
        | Found -> incr found
        | Missing -> incr missing
        | Stored -> ());
        Runtime.persist_op_boundary rt;
        Oplat.op_end ol cpu tag_names.(w0 land 7);
        incr j
      done
    done;
    Option.iter Fcache.drain cache;
    Option.fold ~none:zero_cache_stats ~some:Fcache.stats cache
  in
  let phases, cache =
    phases rt ~records:(Array.length loads) ~ops:n_ops ~load ~run
  in
  { phases; found = !found; missing = !missing; cache; oplat = ol }
