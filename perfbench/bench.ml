(* Host-cost benchmark of the nvml simulator.

   Drives the library's public entry points from outside, in one process
   and one domain, and measures what it costs the host to produce the
   simulated results: wall time, allocation and simulated instructions
   per host second.  Every simulated statistic the workloads produce is
   checked — against pinned values for pinned seeds, and against
   invariants that hold for any seed — and each check counts as one
   attempted output.

     bench.exe --workload W --seed N --seconds S --trace 0|1

   A run repeats the workload's unit of work until [--seconds] have
   passed (at least [min_units] times) and reports the median over the
   units.  [--trace 0] reports the end-to-end metrics; [--trace 1] runs
   untraced and traced units alternately and reports the per-layer
   metrics, with spans recorded through [Telemetry.span] around the
   calls this file makes into each layer.  The last stdout line is a
   JSON object {"values", "attempted", "failed"}; run.py attaches the
   units declared in BENCHMARK.json.  See README.md for the workloads
   and for which end-to-end metric each layer metric should move. *)

module Runtime = Nvml_runtime.Runtime
module Persist = Nvml_runtime.Persist
module Site = Nvml_runtime.Site
module Cpu = Nvml_arch.Cpu
module Mem = Nvml_simmem.Mem
module Physmem = Nvml_simmem.Physmem
module Layout = Nvml_simmem.Layout
module Xlate = Nvml_core.Xlate
module Workload = Nvml_ycsb.Workload
module Intf = Nvml_structures.Intf
module Registry = Nvml_structures.Registry
module Harness = Nvml_kvstore.Harness
module Serving = Nvml_kvstore.Serving
module Faultinject = Nvml_faultinject.Faultinject
module Telemetry = Nvml_telemetry.Telemetry

let now = Unix.gettimeofday
let words = Gc.minor_words
let min_units = 3

(* --- statistics ----------------------------------------------------------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median = function
  | [] -> 0.0
  | xs ->
      let a = sorted xs in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile. *)
let percentile xs q =
  match xs with
  | [] -> 0.0
  | _ ->
      let a = sorted xs in
      let n = Array.length a in
      a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let fsum f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs
let isum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Samples of each reported metric, one per unit; the report is their
   median. *)
let samples : (string, float list) Hashtbl.t = Hashtbl.create 64

let sample name v =
  Hashtbl.replace samples name
    (v :: Option.value ~default:[] (Hashtbl.find_opt samples name))

let samples_of name = Option.value ~default:[] (Hashtbl.find_opt samples name)

(* One unit's end-to-end samples: set-up seconds, KV requests over the
   seconds they took, the unit's simulated instructions over its
   seconds, and minor words per request (deterministic). *)
let e2e ~setup ~ops ~run_s ~instrs ~total_s ~words =
  sample "setup_s" setup;
  sample "ops_per_s" (ops /. run_s);
  sample "sim_minstr_per_s" (instrs /. 1e6 /. total_s);
  sample "alloc_words_per_op" (words /. ops)

(* --- output checks ---------------------------------------------------------- *)

let attempted = ref 0
let failed = ref 0

let check what ok =
  incr attempted;
  if not ok then begin
    incr failed;
    Printf.printf "FAIL %s\n%!" what
  end

(* Pinned simulated statistics: lines "<workload> <seed> <key> <value>".
   A seed with any pin for a workload must match every statistic the
   workload observes; other seeds are held out and get only the
   invariant checks.  Every unit must also repeat the first unit's
   statistics exactly. *)
let pins : (string * int * string, string) Hashtbl.t = Hashtbl.create 512
let pinned_seeds : (string * int, unit) Hashtbl.t = Hashtbl.create 16

let load_pins file =
  let lines =
    In_channel.with_open_text file In_channel.input_all
    |> String.split_on_char '\n'
  in
  List.iter
    (fun line ->
      match String.split_on_char ' ' (String.trim line) with
      | [ "" ] -> ()
      | w :: _ when w.[0] = '#' -> ()
      | [ w; s; k; v ] ->
          let s = int_of_string s in
          Hashtbl.replace pins (w, s, k) v;
          Hashtbl.replace pinned_seeds (w, s) ()
      | _ -> failwith ("malformed pin line: " ^ line))
    lines

let print_pins = ref false
let first_seen : (string, string) Hashtbl.t = Hashtbl.create 512

let verify ~workload ~seed obs =
  let pinned = Hashtbl.mem pinned_seeds (workload, seed) in
  List.iter
    (fun (k, v) ->
      (match Hashtbl.find_opt first_seen k with
      | None ->
          Hashtbl.add first_seen k v;
          if !print_pins then Printf.printf "pin %s %d %s %s\n" workload seed k v
      | Some v0 -> check (Printf.sprintf "%s repeats: %s then %s" k v0 v) (v = v0));
      if pinned then
        match Hashtbl.find_opt pins (workload, seed, k) with
        | Some p -> check (Printf.sprintf "%s = %s, pinned %s" k v p) (v = p)
        | None -> check (Printf.sprintf "%s has no pin for seed %d" k seed) false)
    obs

let i = string_of_int

(* --- shared probes of the lower layers ------------------------------------- *)

let probe_site = Site.make "perfbench.probe"

(* Cost of the public accessors on a populated pool: a pointer chase
   through [load_ptr], a sweep of [store_word], and raw [Mem.read_word]
   on a mapped region.  Host ns and minor words per access. *)
let accessor_probe ~mode ~timing ~persist =
  Runtime.with_default_timing timing @@ fun () ->
  let rt = Runtime.create ~mode ~persist () in
  let pool = Runtime.create_pool rt ~name:"probe" ~size:(1 lsl 24) in
  let n = 4096 and reps = 8 in
  let objs = Array.init n (fun _ -> Runtime.alloc rt ~pool ~persistent:true 64) in
  Array.iteri
    (fun k o -> Runtime.store_ptr rt ~site:probe_site o ~off:0 objs.((k + 1) mod n))
    objs;
  let mem = Runtime.mem rt in
  let va = Mem.map_fresh mem Layout.Dram (n * 64) in
  let per_access f =
    let w0 = words () and t0 = now () in
    for _ = 1 to reps do
      f ()
    done;
    let m = float_of_int (n * reps) in
    ((now () -. t0) *. 1e9 /. m, (words () -. w0) /. m)
  in
  let chase () =
    let p = ref objs.(0) in
    for _ = 1 to n do
      p := Runtime.load_ptr rt ~site:probe_site !p ~off:0
    done
  in
  let sweep () =
    Array.iter (fun o -> Runtime.store_word rt ~site:probe_site o ~off:8 1L) objs
  in
  let raw () =
    for k = 0 to n - 1 do
      ignore (Mem.read_word mem (Int64.add va (Int64.of_int (k * 64))))
    done
  in
  for _ = 1 to 5 do
    let ld_ns, ld_w = per_access chase in
    let st_ns, st_w = per_access sweep in
    let rd_ns, rd_w = per_access raw in
    sample "runtime.load_ptr_ns" ld_ns;
    sample "runtime.store_word_ns" st_ns;
    sample "runtime.words_per_access" ((ld_w +. st_w) /. 2.0);
    sample "simmem.read_word_ns" rd_ns;
    sample "simmem.words_per_access" rd_w
  done

let gc_sample ~ops (g0 : Gc.stat) (g1 : Gc.stat) =
  sample "gc.promoted_words_per_op"
    ((g1.Gc.promoted_words -. g0.Gc.promoted_words) /. float_of_int ops);
  sample "gc.major_collections"
    (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections))

(* --- paper-matrix: cycle-accurate Harness.run_map -------------------------- *)

(* The Fig. 11 / Table V matrix on the paper preset shape, at a quarter
   of the paper's scale so a run holds several units. *)
let paper_scale = 4
let paper_structures = [ "RB"; "Hash" ]

let paper_cells =
  List.concat_map
    (fun s -> List.map (fun m -> (s, m)) Runtime.all_modes)
    paper_structures

let paper_spec seed = { (Workload.scale Workload.paper_default paper_scale) with seed }

(* Boundary stamps taken by the instrumented structure: [M.create]
   returning, the first insert of the load phase and the first call of
   the run phase (call number [load_calls]). *)
type probe = {
  load_calls : int;
  traced : bool;
  mutable calls : int;
  mutable rt : Runtime.t option;
  mutable t_created : float;
  mutable w_created : float;
  mutable t_first : float;
  mutable w_first : float;
  mutable t_run : float;
  mutable reads0 : int;
  mutable writes0 : int;
  mutable call_s : float;
  mutable call_words : float;
  mutable lat : float list;
}

let new_probe ~traced load_calls =
  {
    load_calls; traced; calls = 0; rt = None; t_created = 0.0; w_created = 0.0;
    t_first = 0.0; w_first = 0.0; t_run = 0.0; reads0 = 0; writes0 = 0;
    call_s = 0.0; call_words = 0.0; lat = [];
  }

(* Pass the harness a map that stamps the phase boundaries and, traced,
   times every run-phase call into the structure. *)
let instrument (module M : Intf.ORDERED_MAP) (p : probe) : Intf.ordered_map =
  (module struct
    include M

    let create rt region =
      let m = M.create rt region in
      p.rt <- Some rt;
      p.t_created <- now ();
      p.w_created <- words ();
      m

    (* Returns whether this call is a traced run-phase call. *)
    let enter () =
      if p.calls = 0 then begin
        p.t_first <- now ();
        p.w_first <- words ()
      end
      else if p.calls = p.load_calls then begin
        p.t_run <- now ();
        let phys = Mem.phys (Runtime.mem (Option.get p.rt)) in
        p.reads0 <- Physmem.reads phys;
        p.writes0 <- Physmem.writes phys
      end;
      p.calls <- p.calls + 1;
      p.traced && p.calls > p.load_calls

    let timed name f =
      let w0 = words () and t0 = now () in
      let r = Telemetry.span name f in
      let dt = now () -. t0 in
      p.call_s <- p.call_s +. dt;
      p.call_words <- p.call_words +. (words () -. w0);
      p.lat <- dt :: p.lat;
      r

    let insert m ~key ~value =
      if enter () then timed "structures.insert" (fun () -> M.insert m ~key ~value)
      else M.insert m ~key ~value

    let find m k =
      if enter () then timed "structures.find" (fun () -> M.find m k) else M.find m k

    let remove m k =
      if enter () then timed "structures.remove" (fun () -> M.remove m k)
      else M.remove m k
  end)

type cell = {
  name : string;
  r : Harness.result;
  ops : int;
  setup : float;
  run : float;
  boot : float;
  stage : float;
  stage_words : float;
  words : float;
  reads : int;
  writes : int;
  p : probe;
}

let run_cell ~traced ~timing spec (structure, mode) =
  let m = Registry.find_map structure in
  let p = new_probe ~traced spec.Workload.record_count in
  let w0 = words () and t0 = now () in
  let r =
    Runtime.with_default_timing timing (fun () ->
        Telemetry.span "kvstore.run_map" (fun () ->
            Harness.run_map (instrument m p) ~mode spec))
  in
  let t1 = now () and w1 = words () in
  let phys = Mem.phys (Runtime.mem (Option.get p.rt)) in
  {
    name = structure ^ "/" ^ Runtime.mode_name mode;
    r;
    ops = spec.Workload.operation_count;
    setup = p.t_run -. t0;
    run = t1 -. p.t_run;
    boot = p.t_created -. t0;
    stage = p.t_first -. p.t_created;
    stage_words = p.w_first -. p.w_created;
    words = w1 -. w0;
    reads = Physmem.reads phys - p.reads0;
    writes = Physmem.writes phys - p.writes0;
    p;
  }

let paper_observe cells =
  List.concat_map
    (fun c ->
      let r = c.r in
      let k s = c.name ^ "." ^ s in
      [
        (k "cycles", i r.Harness.run.Cpu.cycles);
        (k "instrs", i r.Harness.run.Cpu.instrs);
        (k "load_instrs", i r.Harness.load.Cpu.instrs);
        (k "checks", i r.Harness.checks.Harness.dynamic_checks);
        (k "ra2va", i r.Harness.checks.Harness.rel_to_abs);
        (k "va2ra", i r.Harness.checks.Harness.abs_to_rel);
        (k "hits", i r.Harness.hits);
        (k "misses", i r.Harness.misses);
      ])
    cells

let paper_invariants cells =
  List.iter
    (fun c ->
      let r = c.r in
      check (c.name ^ ": GET misses = 0") (r.Harness.misses = 0);
      check
        (c.name ^ ": cycle attribution sums to cycles")
        (Cpu.attribution_total r.Harness.attr = r.Harness.run.Cpu.cycles);
      check (c.name ^ ": eager run has no drains") (r.Harness.persist.Harness.drains = 0))
    cells

let paper_unit ~traced ~timing seed =
  let spec = paper_spec seed in
  let g0 = Gc.quick_stat () in
  let cells = List.map (run_cell ~traced ~timing spec) paper_cells in
  (cells, g0, Gc.quick_stat ())

let paper_ops cells = float_of_int (isum (fun c -> c.ops) cells)

let paper_instrs cells =
  isum (fun c -> c.r.Harness.load.Cpu.instrs + c.r.Harness.run.Cpu.instrs) cells

let paper_layers cells =
  let ops = paper_ops cells in
  let per_op f = float_of_int (isum f cells) /. ops in
  let cycles = isum (fun c -> c.r.Harness.run.Cpu.cycles) cells in
  sample "ycsb.stage_s" (fsum (fun c -> c.stage) cells);
  sample "ycsb.words_per_op" (fsum (fun c -> c.stage_words) cells /. ops);
  List.iter (fun c -> sample "runtime.boot_ms" (c.boot *. 1e3)) cells;
  sample "kvstore.driver_self_s" (fsum (fun c -> c.run -. c.p.call_s) cells);
  let lat = List.concat_map (fun c -> c.p.lat) cells in
  let calls = float_of_int (List.length lat) in
  sample "structures.call_us.p50" (percentile lat 0.50 *. 1e6);
  sample "structures.call_us.p99" (percentile lat 0.99 *. 1e6);
  sample "structures.words_per_call" (fsum (fun c -> c.p.call_words) cells /. calls);
  sample "core.dynamic_checks_per_op"
    (per_op (fun c -> c.r.Harness.checks.Harness.dynamic_checks));
  sample "core.ra2va_per_op" (per_op (fun c -> c.r.Harness.checks.Harness.rel_to_abs));
  sample "core.va2ra_per_op" (per_op (fun c -> c.r.Harness.checks.Harness.abs_to_rel));
  sample "simmem.reads_per_op" (per_op (fun c -> c.reads));
  sample "simmem.writes_per_op" (per_op (fun c -> c.writes));
  sample "arch.cycles_per_op" (float_of_int cycles /. ops);
  sample "arch.ipc"
    (ratio (float_of_int (isum (fun c -> c.r.Harness.run.Cpu.instrs) cells)) (float_of_int cycles));
  let accesses = isum (fun c -> c.r.Harness.run.Cpu.mem_accesses) cells in
  sample "arch.l1_hit_rate"
    (ratio
       (fsum
          (fun c ->
            c.r.Harness.run.Cpu.l1_hit_rate
            *. float_of_int c.r.Harness.run.Cpu.mem_accesses)
          cells)
       (float_of_int accesses));
  sample "arch.polb_accesses_per_op" (per_op (fun c -> c.r.Harness.run.Cpu.polb_accesses));
  sample "arch.mispredicts_per_op"
    (per_op (fun c -> c.r.Harness.run.Cpu.branch_mispredicts));
  sample "persist.drains" (float_of_int (isum (fun c -> c.r.Harness.persist.Harness.drains) cells));
  sample "persist.flushes_per_op" (per_op (fun c -> c.r.Harness.persist.Harness.flushes));
  sample "persist.fences_per_op" (per_op (fun c -> c.r.Harness.persist.Harness.fences))

let cell_run c = c.run
let cell_total c = c.setup +. c.run

let paper_matrix ~trace ~seconds seed =
  (* The fast core must retire exactly the instructions the cycle core
     does; checked once per run, outside the measured units. *)
  let fast, _, _ = paper_unit ~traced:false ~timing:false seed in
  let units = ref 0 and t_start = now () in
  while !units < min_units || now () -. t_start < seconds do
    let cells, g0, g1 = paper_unit ~traced:false ~timing:true seed in
    if !units = 0 then
      List.iter2
        (fun c f ->
          check
            (c.name ^ ": fast-mode instrs = cycle-mode instrs")
            (c.r.Harness.run.Cpu.instrs = f.r.Harness.run.Cpu.instrs
            && c.r.Harness.load.Cpu.instrs = f.r.Harness.load.Cpu.instrs))
        cells fast;
    paper_invariants cells;
    verify ~workload:"paper-matrix" ~seed (paper_observe cells);
    e2e
      ~setup:(fsum (fun c -> c.setup) cells)
      ~ops:(paper_ops cells) ~run_s:(fsum cell_run cells)
      ~instrs:(float_of_int (paper_instrs cells))
      ~total_s:(fsum cell_total cells)
      ~words:(fsum (fun c -> c.words) cells);
    sample "total_s" (fsum cell_total cells);
    gc_sample ~ops:(isum (fun c -> c.ops) cells) g0 g1;
    if trace then begin
      let fcells, _, _ = paper_unit ~traced:false ~timing:false seed in
      sample "fast_total_s" (fsum cell_total fcells);
      Telemetry.set_enabled true;
      Telemetry.reset_current ();
      let tcells, _, _ = paper_unit ~traced:true ~timing:true seed in
      Telemetry.set_enabled false;
      verify ~workload:"paper-matrix" ~seed (paper_observe tcells);
      sample "traced_ops_per_s" (paper_ops tcells /. fsum cell_run tcells);
      paper_layers tcells
    end;
    incr units
  done;
  if trace then begin
    let timing_s = median (samples_of "total_s") -. median (samples_of "fast_total_s") in
    sample "arch.timing_s" timing_s;
    sample "arch.host_ns_per_sim_instr"
      (timing_s *. 1e9 /. float_of_int (paper_instrs fast));
    accessor_probe ~mode:Runtime.Hw ~timing:true ~persist:Persist.Eager
  end

(* --- serving-fast: functional Serving.run -------------------------------- *)

let serving_records = 50_000
let serving_ops = 250_000

let serving_spec ~ops seed =
  {
    (List.assoc "rmw-heavy"
       (Workload.serving_mixes ~records:serving_records ~ops))
    with
    seed;
  }

let serving_config ?(front_cache = serving_records / 8) spec =
  Serving.default_config ~structure:"Hash" ~mode:Runtime.Hw ~shards:8 ~batch:32
    ~front_cache spec

type served = {
  t : Serving.t;
  total : float;  (* whole Serving.run *)
  stage : float;  (* entry to the ?par call *)
  stage_words : float;
  total_words : float;
  shard_s : float list;
}

let serve ~traced config =
  let t_par = ref 0.0 and w_par = ref 0.0 and shard_s = ref [] in
  let par thunks =
    t_par := now ();
    w_par := words ();
    List.map
      (fun f ->
        let t0 = now () in
        let s = if traced then Telemetry.span "kvstore.shard" f else f () in
        shard_s := (now () -. t0) :: !shard_s;
        s)
      thunks
  in
  let w0 = words () and t0 = now () in
  let t =
    Runtime.with_default_timing false (fun () ->
        Telemetry.span "kvstore.serving" (fun () -> Serving.run ~par config))
  in
  let t1 = now () and w1 = words () in
  {
    t;
    total = t1 -. t0;
    stage = !t_par -. t0;
    stage_words = !w_par -. w0;
    total_words = w1 -. w0;
    shard_s = !shard_s;
  }

let serving_instrs (t : Serving.t) =
  isum
    (fun (s : Serving.shard) -> s.Serving.load.Cpu.instrs + s.Serving.run.Cpu.instrs)
    t.Serving.per_shard

let serving_observe (t : Serving.t) =
  [
    ("ops", i t.Serving.ops);
    ("found", i t.Serving.found);
    ("missing", i t.Serving.missing);
    ("size", i t.Serving.size);
    ("digest", Int64.to_string t.Serving.digest);
    ("run_cycles_total", i t.Serving.run_cycles_total);
    ("instrs", i (serving_instrs t));
    ("cache.hits", i t.Serving.cache.Serving.hits);
    ("cache.misses", i t.Serving.cache.Serving.misses);
    ("cache.writebacks", i t.Serving.cache.Serving.writebacks);
  ]

let serving_invariants what (t : Serving.t) =
  check (what ^ ": missing = 0") (t.Serving.missing = 0);
  check (what ^ ": found + missing = requests") (t.Serving.found + t.Serving.missing = t.Serving.ops);
  check (what ^ ": size = records (rmw-heavy inserts nothing)") (t.Serving.size = serving_records);
  List.iter
    (fun (s : Serving.shard) ->
      check
        (Printf.sprintf "%s shard %d: fast core, cycles = instrs" what s.Serving.index)
        (s.Serving.run.Cpu.cycles = s.Serving.run.Cpu.instrs))
    t.Serving.per_shard

let serving_unit ~traced seed =
  let c0 = Telemetry.counters_snapshot () in
  let setup = serve ~traced (serving_config (serving_spec ~ops:0 seed)) in
  let g0 = Gc.quick_stat () in
  let c1 = Telemetry.counters_snapshot () in
  let full = serve ~traced (serving_config (serving_spec ~ops:serving_ops seed)) in
  let g1 = Gc.quick_stat () in
  let c2 = Telemetry.counters_snapshot () in
  (* Request-phase count of a published counter: the full run's minus
     the records-only run's. *)
  let requests name =
    let at c = List.assoc name c in
    at c2 - at c1 - (at c1 - at c0)
  in
  serving_invariants "records-only run" setup.t;
  serving_invariants "serving run" full.t;
  verify ~workload:"serving-fast" ~seed (serving_observe full.t);
  let ops = float_of_int full.t.Serving.ops in
  (setup, full, ops, g0, g1, requests)

let serving_fast ~trace ~seconds seed =
  (* The write-back cache must leave the persistent contents exactly as
     a cache-disabled run does; checked once per run. *)
  let off =
    serve ~traced:false
      (serving_config ~front_cache:0 (serving_spec ~ops:serving_ops seed))
  in
  let units = ref 0 and t_start = now () in
  while !units < min_units || now () -. t_start < seconds do
    let setup, full, ops, g0, g1, _ = serving_unit ~traced:false seed in
    if !units = 0 then
      check "cache-on digest = cache-off digest"
        (full.t.Serving.digest = off.t.Serving.digest);
    e2e ~setup:setup.total ~ops ~run_s:full.total
      ~instrs:(float_of_int (serving_instrs full.t))
      ~total_s:full.total ~words:full.total_words;
    gc_sample ~ops:full.t.Serving.ops g0 g1;
    if trace then begin
      Telemetry.set_enabled true;
      Telemetry.reset_current ();
      let _, full, ops, _, _, requests = serving_unit ~traced:true seed in
      let delta name = float_of_int (requests name) /. ops in
      Telemetry.set_enabled false;
      sample "traced_ops_per_s" (ops /. full.total);
      sample "ycsb.stage_s" full.stage;
      sample "ycsb.words_per_op" (full.stage_words /. ops);
      sample "kvstore.shard_s.p50" (median full.shard_s);
      sample "kvstore.shard_s.max" (List.fold_left max 0.0 full.shard_s);
      sample "kvstore.cache_hit_rate" (Serving.hit_rate full.t.Serving.cache);
      sample "kvstore.writebacks_per_op"
        (float_of_int full.t.Serving.cache.Serving.writebacks /. ops);
      sample "core.dynamic_checks_per_op" (delta "xlate.dynamic_checks");
      sample "core.ra2va_per_op" (delta "xlate.ra2va");
      sample "core.va2ra_per_op" (delta "xlate.va2ra");
      sample "simmem.reads_per_op" (delta "physmem.reads");
      sample "simmem.writes_per_op" (delta "physmem.writes");
      let cycles = full.t.Serving.run_cycles_total in
      let instrs =
        isum (fun (s : Serving.shard) -> s.Serving.run.Cpu.instrs) full.t.Serving.per_shard
      in
      sample "arch.cycles_per_op" (float_of_int cycles /. ops);
      sample "arch.ipc" (ratio (float_of_int instrs) (float_of_int cycles))
    end;
    incr units
  done;
  if trace then begin
    (* A shard cell boots inside Serving.run, so boot one the same way
       (Runtime.create + pool + M.create) to time it. *)
    let (module M : Intf.ORDERED_MAP) = Registry.find_map "Hash" in
    Runtime.with_default_timing false (fun () ->
        for _ = 1 to 10 do
          let t0 = now () in
          let rt = Runtime.create ~mode:Runtime.Hw () in
          let pool = Runtime.create_pool rt ~name:"boot" ~size:Harness.pool_size in
          ignore (M.create rt (Runtime.Pool_region pool));
          sample "runtime.boot_ms" ((now () -. t0) *. 1e3)
        done);
    accessor_probe ~mode:Runtime.Hw ~timing:false ~persist:Persist.Eager
  end

(* --- crash-sweep: Faultinject.run under epoch:8 --------------------------- *)

let crash_records = 200
let crash_ops = 400
let crash_stride = 28
let crash_persist = Persist.Epoch { interval = 8 }

(* Stamps and times taken through the workload's own closures. *)
type fi_probe = {
  fi_traced : bool;
  mutable fi_rt : Runtime.t option;
  mutable t_setup : float;
  mutable steps : int;
  mutable replay_s : float;
  mutable snapshot_s : float;
  mutable check_s : float;
}

let fi_timed p name acc f =
  if p.fi_traced then begin
    let t0 = now () in
    let r = Telemetry.span name f in
    acc (now () -. t0);
    r
  end
  else f ()

let wrap_workload (w : Faultinject.workload) p =
  let inst (x : Faultinject.instance) =
    {
      x with
      Faultinject.step =
        (fun k ->
          p.steps <- p.steps + 1;
          fi_timed p "faultinject.step"
            (fun d -> p.replay_s <- p.replay_s +. d)
            (fun () -> x.Faultinject.step k));
      snapshot =
        (fun () ->
          fi_timed p "faultinject.snapshot"
            (fun d -> p.snapshot_s <- p.snapshot_s +. d)
            x.Faultinject.snapshot);
      check =
        (fun () ->
          fi_timed p "faultinject.check"
            (fun d -> p.check_s <- p.check_s +. d)
            x.Faultinject.check);
    }
  in
  {
    w with
    Faultinject.setup =
      (fun rt ~pool ->
        p.fi_rt <- Some rt;
        p.t_setup <- now ();
        inst
          (fi_timed p "faultinject.setup"
             (fun d -> p.replay_s <- p.replay_s +. d)
             (fun () -> w.Faultinject.setup rt ~pool)));
    reattach = (fun rt h -> inst (w.Faultinject.reattach rt h));
  }

type swept = {
  report : Faultinject.report;
  ref_s : float;  (* reference pass: entry to the ?par call *)
  par_s : float;  (* the crash passes *)
  total_words : float;
  pass_s : float list;
  boot_s : float list;
  par_steps : int;
  par_ops : int;  (* KV requests of the crash passes: each pass's load, then its replay *)
  instrs : int;  (* simulated by the crash passes *)
  cycles : int;
  ref_instrs : int;  (* simulated by the reference pass *)
  reads : int;
  writes : int;
  xc : Xlate.counters;
  ref_drains : int;
  fp : fi_probe;
}

let sweep ~traced ?max_points ~persist w =
  let fp =
    {
      fi_traced = traced; fi_rt = None; t_setup = 0.0; steps = 0; replay_s = 0.0;
      snapshot_s = 0.0; check_s = 0.0;
    }
  in
  let t_par = ref 0.0 and steps0 = ref 0 in
  let pass_s = ref [] and boot_s = ref [] in
  let instrs = ref 0 and cycles = ref 0 and reads = ref 0 and writes = ref 0 in
  let ref_drains = ref 0 and ref_instrs = ref 0 in
  let xc = Xlate.fresh_counters () in
  let par thunks =
    t_par := now ();
    steps0 := fp.steps;
    let ref_rt = Option.get fp.fi_rt in
    ref_drains := Persist.drains (Runtime.persist ref_rt);
    ref_instrs := (Runtime.snapshot ref_rt).Cpu.instrs;
    List.map
      (fun f ->
        let t0 = now () in
        let o = if traced then Telemetry.span "faultinject.pass" f else f () in
        pass_s := (now () -. t0) :: !pass_s;
        boot_s := (fp.t_setup -. t0) :: !boot_s;
        let rt = Option.get fp.fi_rt in
        let phys = Mem.phys (Runtime.mem rt) in
        let c = Runtime.snapshot rt in
        instrs := !instrs + c.Cpu.instrs;
        cycles := !cycles + c.Cpu.cycles;
        reads := !reads + Physmem.reads phys;
        writes := !writes + Physmem.writes phys;
        Xlate.add_counters xc (Runtime.counters rt);
        o)
      thunks
  in
  let spec =
    { Faultinject.default_spec with every_n = crash_stride; seed = 1; max_points }
  in
  let w0 = words () and t0 = now () in
  let report =
    Telemetry.span "faultinject.run" (fun () ->
        Faultinject.run ~par ~persist ~spec (wrap_workload w fp))
  in
  let t1 = now () and w1 = words () in
  {
    report;
    ref_s = !t_par -. t0;
    par_s = t1 -. !t_par;
    total_words = w1 -. w0;
    pass_s = !pass_s;
    boot_s = !boot_s;
    par_steps = fp.steps - !steps0;
    par_ops = fp.steps - !steps0 + (crash_records * List.length !pass_s);
    instrs = !instrs;
    cycles = !cycles;
    ref_instrs = !ref_instrs;
    reads = !reads;
    writes = !writes;
    xc;
    ref_drains = !ref_drains;
    fp;
  }

let crash_observe s =
  let r = s.report and t = s.report.Faultinject.tally in
  [
    ("events", i r.Faultinject.events);
    ("pm_stores", i t.Faultinject.pm_stores);
    ("storeps", i t.Faultinject.storeps);
    ("log_appends", i t.Faultinject.log_appends);
    ("meta_writes", i t.Faultinject.meta_writes);
    ("flushes", i t.Faultinject.flushes);
    ("fences", i t.Faultinject.fences);
    ("points", i (List.length r.Faultinject.outcomes));
    ("clean", i r.Faultinject.clean);
    ("rolled_back", i r.Faultinject.rolled_back);
    ("suffix_lost", i r.Faultinject.suffix_lost);
    ("steps", i s.par_steps);
    ("instrs", i s.instrs);
    ("ref_drains", i s.ref_drains);
  ]

let crash_invariants s =
  let r = s.report in
  let points = List.length r.Faultinject.outcomes in
  check "crash sweep: 0 violations" (r.Faultinject.violations = []);
  check "crash sweep: one pass per strided point"
    (points = (r.Faultinject.events + crash_stride - 1) / crash_stride);
  check "crash sweep: every pass recovers clean or rolls back"
    (r.Faultinject.clean + r.Faultinject.rolled_back = points);
  check "crash sweep: epoch:8 drains in the reference pass" (s.ref_drains > 0);
  check "crash sweep: fast core, cycles = instrs"
    (let c = Runtime.snapshot (Option.get s.fp.fi_rt) in
     c.Cpu.cycles = c.Cpu.instrs)

let crash_workload seed =
  Faultinject.kv_workload ~structure:"RB" ~records:crash_records ~ops:crash_ops ~seed ()

let crash_unit ~traced seed =
  let w0 = words () and t0 = now () in
  let w = crash_workload seed in
  let stage = now () -. t0 and stage_words = words () -. w0 in
  let g0 = Gc.quick_stat () in
  let s = sweep ~traced ~persist:crash_persist w in
  let g1 = Gc.quick_stat () in
  crash_invariants s;
  verify ~workload:"crash-sweep" ~seed (crash_observe s);
  (s, stage, stage_words, g0, g1)

let crash_sweep ~trace ~seconds seed =
  let units = ref 0 and t_start = now () in
  let eager_ref_s = ref [] in
  while !units < min_units || now () -. t_start < seconds do
    let s, _, _, g0, g1 = crash_unit ~traced:false seed in
    let ops = float_of_int s.par_ops in
    e2e ~setup:s.ref_s ~ops ~run_s:s.par_s
      ~instrs:(float_of_int (s.ref_instrs + s.instrs))
      ~total_s:(s.ref_s +. s.par_s) ~words:s.total_words;
    sample "faultinject.crash_points_per_s"
      (float_of_int (List.length s.report.Faultinject.outcomes) /. s.par_s);
    gc_sample ~ops:s.par_ops g0 g1;
    if trace then begin
      (* The same reference pass under eager persistence: no crash
         points, so the run ends at the ?par call. *)
      let e = sweep ~traced:false ~max_points:0 ~persist:Persist.Eager (crash_workload seed) in
      check "eager reference pass: 0 violations" (e.report.Faultinject.violations = []);
      eager_ref_s := e.ref_s :: !eager_ref_s;
      Telemetry.set_enabled true;
      Telemetry.reset_current ();
      let s, stage, stage_words, _, _ = crash_unit ~traced:true seed in
      Telemetry.set_enabled false;
      let ops = float_of_int s.par_ops in
      let per_op n = float_of_int n /. ops in
      let fp = s.fp in
      sample "traced_ops_per_s" (ops /. s.par_s);
      sample "ycsb.stage_s" stage;
      sample "ycsb.words_per_op" (stage_words /. float_of_int crash_ops);
      List.iter (fun b -> sample "runtime.boot_ms" (b *. 1e3)) s.boot_s;
      sample "core.dynamic_checks_per_op" (per_op s.xc.Xlate.dynamic_checks);
      sample "core.ra2va_per_op" (per_op s.xc.Xlate.ra2va);
      sample "core.va2ra_per_op" (per_op s.xc.Xlate.va2ra);
      sample "simmem.reads_per_op" (per_op s.reads);
      sample "simmem.writes_per_op" (per_op s.writes);
      sample "arch.cycles_per_op" (per_op s.cycles);
      sample "arch.ipc" (ratio (float_of_int s.instrs) (float_of_int s.cycles));
      let t = s.report.Faultinject.tally in
      (* Drain traffic of the reference pass, per workload op. *)
      let wl_ops = float_of_int crash_ops in
      sample "persist.drains" (float_of_int s.ref_drains);
      sample "persist.flushes_per_op" (float_of_int t.Faultinject.flushes /. wl_ops);
      sample "persist.fences_per_op" (float_of_int t.Faultinject.fences /. wl_ops);
      sample "faultinject.ref_pass_s" s.ref_s;
      sample "faultinject.pass_ms.p50" (percentile s.pass_s 0.50 *. 1e3);
      sample "faultinject.pass_ms.p99" (percentile s.pass_s 0.99 *. 1e3);
      sample "faultinject.replay_share" (fp.replay_s /. s.par_s);
      sample "faultinject.snapshot_s" fp.snapshot_s;
      sample "faultinject.check_s" fp.check_s
    end;
    incr units
  done;
  if trace then begin
    sample "persist.overhead_s"
      (median (samples_of "faultinject.ref_pass_s") -. median !eager_ref_s);
    accessor_probe ~mode:Runtime.Hw ~timing:false ~persist:crash_persist
  end

(* --- main -------------------------------------------------------------------- *)

let end_to_end = [ "setup_s"; "ops_per_s"; "sim_minstr_per_s"; "alloc_words_per_op" ]

let per_layer =
  [
    "ycsb.stage_s"; "ycsb.words_per_op"; "runtime.boot_ms"; "kvstore.driver_self_s";
    "kvstore.shard_s.p50"; "kvstore.shard_s.max"; "kvstore.cache_hit_rate";
    "kvstore.writebacks_per_op"; "structures.call_us.p50"; "structures.call_us.p99";
    "structures.words_per_call"; "core.dynamic_checks_per_op"; "core.ra2va_per_op";
    "core.va2ra_per_op"; "runtime.load_ptr_ns"; "runtime.store_word_ns";
    "runtime.words_per_access"; "simmem.read_word_ns"; "simmem.words_per_access";
    "simmem.reads_per_op"; "simmem.writes_per_op"; "arch.timing_s";
    "arch.host_ns_per_sim_instr"; "arch.cycles_per_op"; "arch.ipc"; "arch.l1_hit_rate";
    "arch.polb_accesses_per_op"; "arch.mispredicts_per_op"; "persist.drains";
    "persist.flushes_per_op"; "persist.fences_per_op"; "persist.overhead_s";
    "faultinject.ref_pass_s"; "faultinject.pass_ms.p50"; "faultinject.pass_ms.p99";
    "faultinject.replay_share"; "faultinject.snapshot_s"; "faultinject.check_s";
    "faultinject.crash_points_per_s"; "gc.promoted_words_per_op";
    "gc.major_collections"; "trace.overhead_frac";
  ]

let workloads =
  let p = paper_spec 0 in
  [
    ( "paper-matrix",
      ( paper_matrix,
        Printf.sprintf
          "records=%d ops=%d structures=%s modes=all timing=cycle persist=eager"
          p.Workload.record_count p.Workload.operation_count
          (String.concat "," paper_structures) ) );
    ( "serving-fast",
      ( serving_fast,
        Printf.sprintf
          "records=%d ops=%d mix=rmw-heavy structure=Hash shards=8 batch=32 \
           front_cache=%d timing=fast"
          serving_records serving_ops (serving_records / 8) ) );
    ( "crash-sweep",
      ( crash_sweep,
        Printf.sprintf
          "structure=RB records=%d ops=%d persist=%s stride=%d timing=fast"
          crash_records crash_ops (Persist.model_name crash_persist) crash_stride ) );
  ]

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let pins_file = ref "perfbench/pins.txt" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME paper-matrix | serving-fast | crash-sweep");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--pins", Arg.Set_string pins_file, "FILE pinned simulated statistics");
      ("--print-pins", Arg.Set print_pins, " print the statistics of the first unit as pin lines");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  let run, scale =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None ->
        Printf.eprintf "unknown workload %S (known: %s)\n" !workload
          (String.concat ", " (List.map fst workloads));
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then (prerr_endline "--trace must be 0 or 1"; exit 2);
  load_pins !pins_file;
  let trace = !trace = 1 in
  Printf.printf
    "{\"stamp\": {\"workload\": %S, \"seed\": %d, \"seconds\": %s, \"trace\": %b, \
     \"jobs\": 1, \"nproc\": %d, \"ocaml\": %S, \"scale\": %S}}\n%!"
    !workload !seed (json_float !seconds) trace
    (Domain.recommended_domain_count ()) Sys.ocaml_version scale;
  run ~trace ~seconds:!seconds !seed;
  if trace then begin
    sample "trace.overhead_frac"
      (1.0 -. (median (samples_of "traced_ops_per_s") /. median (samples_of "ops_per_s")));
    if not (Hashtbl.mem samples "arch.timing_s") then begin
      (* The workload runs the fast core only: no timing model to pay. *)
      sample "arch.timing_s" 0.0;
      sample "arch.host_ns_per_sim_instr" 0.0
    end;
    (try Sys.mkdir "perfbench/out" 0o755 with Sys_error _ -> ());
    let file = Printf.sprintf "perfbench/out/trace-%s-seed%d.json" !workload !seed in
    Out_channel.with_open_text file Telemetry.write_chrome_trace;
    Printf.printf "trace written to %s\n" file
  end;
  let names = if trace then per_layer else end_to_end in
  List.iter
    (fun n ->
      match samples_of n with
      | [] -> Printf.printf "%-30s n/a on this workload (reported as 0)\n" n
      | xs ->
          Printf.printf "%-30s %-13.6g (median of %d samples: min %.6g max %.6g)\n" n
            (median xs) (List.length xs) (percentile xs 0.0) (percentile xs 1.0))
    names;
  Printf.printf "{\"values\": {%s}, \"attempted\": %d, \"failed\": %d}\n"
    (String.concat ", "
       (List.map
          (fun n -> Printf.sprintf "%S: %s" n (json_float (median (samples_of n))))
          names))
    !attempted !failed;
  exit (if !failed = 0 then 0 else 1)
