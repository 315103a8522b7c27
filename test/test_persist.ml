(* Persistency-model engine tests: the epoch engine's drain accounting
   through the KV harness, exhaustive contract-verified crash sweeps
   under every retention model (single-core RB and 2-core concurrent),
   and the eager pin — `~persist:Eager` must be indistinguishable from
   not passing a model at all. *)

module W = Nvml_ycsb.Workload
module Cpu = Nvml_arch.Cpu
module Runtime = Nvml_runtime.Runtime
module Persist = Nvml_runtime.Persist
module Harness = Nvml_kvstore.Harness
module F = Nvml_faultinject.Faultinject
module Pool = Nvml_exec.Pool

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let no_violations name (r : F.report) =
  Alcotest.(check (list (pair int string))) name [] r.F.violations

(* A small write-heavy spec: the drain engine only has work to do when
   operations dirty persistent lines. *)
let small =
  {
    (W.scale W.paper_default 50) with
    W.read_proportion = 0.5;
    update_proportion = 0.45;
    insert_proportion = 0.05;
  }

(* --- epoch-engine drain accounting -------------------------------------- *)

let test_harness_drain_accounting () =
  let run persist = Harness.run_benchmark "RB" ~mode:Runtime.Hw ~persist small in
  let eager = run Persist.Eager in
  let epoch = run (Persist.Epoch { interval = 4 }) in
  let lazy_ = run Persist.Lazy_on_detach in
  (* Eager persists in place: no buffering, no drain traffic. *)
  check_int "eager drains" 0 eager.Harness.persist.Harness.drains;
  check_int "eager flushes" 0 eager.Harness.persist.Harness.flushes;
  check_int "eager buffered" 0 eager.Harness.persist.Harness.buffered;
  (* Epoch mode must actually drain: one fence per drain, and at least
     one flushed line per drain on a write-heavy stream. *)
  let p = epoch.Harness.persist in
  check_bool "epoch drains" true (p.Harness.drains > 0);
  check_bool "epoch flushes" true (p.Harness.flushes >= p.Harness.drains);
  check_int "one fence per drain" p.Harness.drains p.Harness.fences;
  (* Lazy drains exactly once, at the closing sync. *)
  check_bool "lazy buffers the whole run" true
    (lazy_.Harness.persist.Harness.buffered > 0);
  check_bool "lazy coalesces: fewer flushes than epoch:4" true
    (lazy_.Harness.persist.Harness.flushes < p.Harness.flushes);
  (* Same functional behaviour under every model. *)
  check_int "epoch hits" eager.Harness.hits epoch.Harness.hits;
  check_int "lazy hits" eager.Harness.hits lazy_.Harness.hits

(* --- the eager pin ------------------------------------------------------ *)

(* `~persist:Eager` must be byte-identical to the pre-existing default:
   same cycles, same attribution, same check counts, same fi report. *)
let test_eager_pin () =
  let explicit =
    Harness.run_benchmark "RB" ~mode:Runtime.Hw ~persist:Persist.Eager small
  in
  let default = Harness.run_benchmark "RB" ~mode:Runtime.Hw small in
  check_int "same run cycles" default.Harness.run.Cpu.cycles
    explicit.Harness.run.Cpu.cycles;
  check_int "same load cycles" default.Harness.load.Cpu.cycles
    explicit.Harness.load.Cpu.cycles;
  check_bool "same run snapshot" true
    (default.Harness.run = explicit.Harness.run);
  check_bool "same check counts" true
    (default.Harness.checks = explicit.Harness.checks);
  let w = F.kv_workload ~structure:"RB" ~records:8 ~ops:24 () in
  let r_explicit = F.run ~persist:Persist.Eager ~spec:F.default_spec w in
  let r_default = F.run ~spec:F.default_spec w in
  check_bool "identical fi reports" true (r_explicit = r_default)

(* --- exhaustive single-core sweeps: oracle vs observation --------------- *)

(* Every event of an RB stream under every retention model.  The sweep
   hard-fails (a violation) whenever the recovered state differs from
   the oracle's predicted epoch boundary in either direction, so "no
   violations" is exactly "oracle matched observed recovery at every
   crash point". *)
let test_rb_sweep_all_models () =
  let sweep persist =
    let w = F.kv_workload ~structure:"RB" ~records:8 ~ops:24 () in
    F.run ~persist ~spec:{ F.default_spec with F.torn = true } w
  in
  let eager = sweep Persist.Eager in
  let epoch = sweep (Persist.Epoch { interval = 4 }) in
  let lazy_ = sweep Persist.Lazy_on_detach in
  List.iter
    (fun (name, (r : F.report)) ->
      no_violations name r;
      check_int (name ^ ": one crash point per event") r.F.events
        (List.length r.F.outcomes))
    [ ("eager", eager); ("epoch:4", epoch); ("lazy", lazy_) ];
  (* The exposure ordering: eager loses nothing, wider retention loses
     more (monotone in the model, verified not estimated). *)
  check_int "eager loses nothing" 0 eager.F.suffix_lost;
  check_bool "epoch:4 exposes some suffix loss" true (epoch.F.suffix_lost > 0);
  check_bool "lazy exposes at least as much as epoch:4" true
    (lazy_.F.suffix_lost >= epoch.F.suffix_lost);
  (* Relaxed sweeps enumerate the drain µ-events too. *)
  check_bool "epoch:4 sweeps flush events" true (epoch.F.tally.F.flushes > 0);
  check_bool "epoch:4 sweeps fence events" true (epoch.F.tally.F.fences > 0);
  check_int "eager has no drain events" 0 eager.F.tally.F.flushes

(* Parallel sweep under a relaxed model must match the sequential one
   byte for byte (share-nothing crash passes). *)
let test_relaxed_jobs_determinism () =
  let w = F.kv_workload ~structure:"RB" ~records:6 ~ops:12 () in
  let spec = { F.default_spec with F.torn = true; F.seed = 7 } in
  let persist = Persist.Epoch { interval = 4 } in
  let seq = F.run ~persist ~spec w in
  let pool = Pool.create ~jobs:4 () in
  let par =
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () -> F.run ~par:(Pool.run pool) ~persist ~spec w)
  in
  check_bool "jobs 4 == jobs 1 under epoch:4" true (seq = par)

(* --- exhaustive 2-core sweep under epoch:4 ------------------------------ *)

(* Every event of the seeded 2-core interleaving, per-core epochs
   draining through the shared buffer: the recovered counter/chain must
   equal the oracle's durable-value prediction at every point. *)
let test_conc_epoch4_sweep () =
  let run persist = F.run_conc ~cores:2 ~ops_per_core:8 ~persist () in
  let eager = run Persist.Eager in
  let epoch = run (Persist.Epoch { interval = 4 }) in
  List.iter
    (fun (name, (r : F.report)) ->
      Alcotest.(check (list (pair int string)))
        (name ^ ": no violations") [] r.F.violations;
      check_int
        (name ^ ": one crash point per event")
        r.F.events
        (List.length r.F.outcomes);
      Alcotest.(check string) (name ^ ": two cores") "conc-2core" r.F.workload)
    [ ("eager", eager); ("epoch:4", epoch) ];
  (* The relaxed machine schedules extra drain µ-events, so its sweep
     is strictly longer than the eager one. *)
  check_bool "epoch:4 enumerates drain events" true
    (epoch.F.events > eager.F.events);
  (* Completed increments still buffered in an undrained epoch die with
     the crash. *)
  check_bool "epoch:4: some points lose completed increments" true
    (epoch.F.suffix_lost > 0)

let () =
  Alcotest.run "persist"
    [
      ( "engine",
        [
          Alcotest.test_case "harness drain accounting" `Quick
            test_harness_drain_accounting;
        ] );
      ( "pin",
        [ Alcotest.test_case "eager is the default, exactly" `Quick
            test_eager_pin ] );
      ( "sweep",
        [
          Alcotest.test_case "RB, every event, all models" `Quick
            test_rb_sweep_all_models;
          Alcotest.test_case "2-core counter+list, epoch:4" `Quick
            test_conc_epoch4_sweep;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "jobs 4 == jobs 1 under epoch:4" `Quick
            test_relaxed_jobs_determinism;
        ] );
    ]
