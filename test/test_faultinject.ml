(* Fault-injection engine tests: exhaustive crash-point sweeps over a
   small transaction stream and over the KV harness, torn-write
   round-trips, parallel-sweep determinism, and the checker self-test
   (a deliberately broken recovery must be caught). *)

module Fi = Nvml_simmem.Fi
module Txn = Nvml_runtime.Txn
module Persist = Nvml_runtime.Persist
module F = Nvml_faultinject.Faultinject
module Pool = Nvml_exec.Pool

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let no_violations (r : F.report) =
  Alcotest.(check (list (pair int string))) "no violations" [] r.violations

(* --- torn-word mixing --------------------------------------------------- *)

let test_torn_word () =
  let old_value = 0x1122334455667788L and new_value = 0x99aabbccddeeff00L in
  Alcotest.(check int64)
    "all old" old_value
    (Fi.torn_word ~keep_old_bytes:0xFF ~old_value ~new_value);
  Alcotest.(check int64)
    "all new" new_value
    (Fi.torn_word ~keep_old_bytes:0x00 ~old_value ~new_value);
  Alcotest.(check int64)
    "low half old" 0x99aabbcc55667788L
    (Fi.torn_word ~keep_old_bytes:0x0F ~old_value ~new_value);
  Alcotest.(check int64)
    "one lane" 0x99aabbccddee7700L
    (Fi.torn_word ~keep_old_bytes:0x02 ~old_value ~new_value)

(* --- exhaustive sweep over a 3-op transaction stream -------------------- *)

let test_counter_sweep () =
  let w = F.counter_workload ~ops:3 () in
  let r = F.run ~spec:F.default_spec w in
  check "one crash point per event" r.F.events (List.length r.F.outcomes);
  check_bool "events counted" true (r.F.events > 0);
  check_bool "log appends seen" true (r.F.tally.F.log_appends > 0);
  check "every point recovered" (List.length r.F.outcomes)
    (r.F.clean + r.F.rolled_back);
  check_bool "some crash points interrupt live transactions" true
    (List.exists
       (fun (o : F.outcome) ->
         match o.F.recovery with Txn.Rolled_back n -> n > 0 | _ -> false)
       r.F.outcomes);
  no_violations r

(* Torn variant: the interrupted data word is replaced by a seeded
   byte-mix of old and new; the undo log must heal every one. *)
let test_counter_sweep_torn () =
  let w = F.counter_workload ~ops:3 () in
  let r = F.run ~spec:{ F.default_spec with torn = true; seed = 3 } w in
  check_bool "torn words were injected" true (r.F.torn_injected > 0);
  no_violations r

(* --- checker self-test -------------------------------------------------- *)

(* With recovery disabled the machine reboots into whatever the crash
   left behind; the checker must notice at some crash point. *)
let test_broken_recovery_is_caught () =
  let w = F.counter_workload ~ops:3 () in
  let r = F.run ~spec:{ F.default_spec with break_recovery = true } w in
  check_bool "the checker catches a disabled recovery" true
    (r.F.violations <> [])

(* --- the KV harness ----------------------------------------------------- *)

(* Acceptance sweep: every persistence event of a 100-op YCSB stream
   against the RB tree, zero violations. *)
let test_kv_full_sweep () =
  let w = F.kv_workload ~structure:"RB" ~records:15 ~ops:100 () in
  let pool = Pool.create () in
  let r =
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () -> F.run ~par:(Pool.run pool) ~spec:F.default_spec w)
  in
  check_bool "a real event stream" true (r.F.events > 100);
  check_bool "storeP retirements seen" true (r.F.tally.F.storeps > 0);
  check_bool "allocator metadata writes seen" true (r.F.tally.F.meta_writes > 0);
  check "one crash point per event" r.F.events (List.length r.F.outcomes);
  check "every point recovered" (List.length r.F.outcomes)
    (r.F.clean + r.F.rolled_back);
  no_violations r

let test_kv_torn_sweep () =
  let w = F.kv_workload ~structure:"AVL" ~records:10 ~ops:40 () in
  let r = F.run ~spec:{ F.default_spec with every_n = 5; torn = true } w in
  check_bool "torn words were injected" true (r.F.torn_injected > 0);
  no_violations r

(* --- parallel-sweep determinism ----------------------------------------- *)

let test_jobs_determinism () =
  let w = F.kv_workload ~structure:"Skip" ~records:6 ~ops:15 () in
  let spec = { F.default_spec with every_n = 4; torn = true; seed = 11 } in
  let seq = F.run ~spec w in
  let pool = Pool.create ~jobs:4 () in
  let par =
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () -> F.run ~par:(Pool.run pool) ~spec w)
  in
  check "same point count" (List.length seq.F.outcomes)
    (List.length par.F.outcomes);
  check_bool "--jobs 4 outcomes identical to --jobs 1" true
    (seq.F.outcomes = par.F.outcomes);
  check_bool "identical reports" true (seq = par)

(* --- golden pins ---------------------------------------------------------- *)

(* Event schedules, tallies and verdicts of four fixed sweeps: two
   through the transactional oracle (torn, eager and epoch:4) and two
   through the durable-linearizability oracle.  A change to the shared
   engine must keep every value. *)
let pins (r : F.report) =
  let t = r.F.tally in
  [
    ("events", r.F.events);
    ("pm_stores", t.F.pm_stores);
    ("storeps", t.F.storeps);
    ("log_appends", t.F.log_appends);
    ("meta_writes", t.F.meta_writes);
    ("flushes", t.F.flushes);
    ("fences", t.F.fences);
    ("points", List.length r.F.outcomes);
    ("clean", r.F.clean);
    ("rolled_back", r.F.rolled_back);
    ("suffix_lost", r.F.suffix_lost);
    ("torn_injected", r.F.torn_injected);
    ("violations", List.length r.F.violations);
  ]

let check_pins name want r =
  Alcotest.(check (list (pair string int)))
    name want
    (List.filter (fun (k, _) -> List.mem_assoc k want) (pins r))

let test_golden_pins () =
  let epoch4 = Persist.Epoch { interval = 4 } in
  check_pins "counter, torn"
    [
      ("events", 57); ("pm_stores", 48); ("storeps", 0); ("log_appends", 9);
      ("meta_writes", 0); ("flushes", 0); ("fences", 0); ("points", 57);
      ("clean", 6); ("rolled_back", 51); ("suffix_lost", 0);
      ("torn_injected", 9); ("violations", 0);
    ]
    (F.run
       ~spec:{ F.default_spec with torn = true; seed = 3 }
       (F.counter_workload ~ops:3 ()));
  check_pins "kv RB, epoch:4, torn"
    [
      ("events", 364); ("pm_stores", 244); ("storeps", 28);
      ("log_appends", 58); ("meta_writes", 14); ("flushes", 17);
      ("fences", 3); ("points", 364); ("clean", 6); ("rolled_back", 358);
      ("suffix_lost", 15); ("torn_injected", 75); ("violations", 0);
    ]
    (F.run ~persist:epoch4
       ~spec:{ F.default_spec with torn = true }
       (F.kv_workload ~structure:"RB" ~records:6 ~ops:12 ()));
  List.iter
    (fun (name, persist, events) ->
      check_pins name
        [ ("events", events); ("points", events); ("violations", 0) ]
        (F.run_conc ~cores:2 ~ops_per_core:4 ~persist ()))
    [
      ("conc 2x4, eager", Persist.Eager, 48);
      ("conc 2x4, epoch:4", epoch4, 55);
    ]

let () =
  Alcotest.run "faultinject"
    [
      ( "torn",
        [
          Alcotest.test_case "torn_word mixing" `Quick test_torn_word;
          Alcotest.test_case "counter sweep, torn" `Quick
            test_counter_sweep_torn;
          Alcotest.test_case "kv sweep, torn" `Quick test_kv_torn_sweep;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "counter, every event" `Quick test_counter_sweep;
          Alcotest.test_case "kv RB, every event of 100 ops" `Slow
            test_kv_full_sweep;
        ] );
      ( "checker",
        [
          Alcotest.test_case "broken recovery is caught" `Quick
            test_broken_recovery_is_caught;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "jobs 4 == jobs 1" `Quick test_jobs_determinism;
        ] );
      ("pins", [ Alcotest.test_case "golden values" `Quick test_golden_pins ]);
    ]
