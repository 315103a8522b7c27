(* Tests for the KV-store harness: sanity of results across modes and
   the qualitative relationships the evaluation section reports (SW
   slower than HW, HW close to volatile, Explicit translating far more
   than HW). *)

module Cpu = Nvml_arch.Cpu
module Runtime = Nvml_runtime.Runtime
module Harness = Nvml_kvstore.Harness
module W = Nvml_ycsb.Workload

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A scaled-down spec so the suite stays fast. *)
let small = W.scale W.paper_default 50 (* 200 records, 2000 ops *)

let test_all_reads_hit () =
  List.iter
    (fun mode ->
      let r = Harness.run_map (module Nvml_structures.Registry.Rb) ~mode small in
      check_int (Fmt.str "no misses in %a" Runtime.pp_mode mode) 0 r.Harness.misses;
      check_bool "some hits" true (r.Harness.hits > 0))
    Runtime.all_modes

let test_same_behaviour_across_modes () =
  let hits mode =
    (Harness.run_map (module Nvml_structures.Registry.Avl) ~mode small)
      .Harness.hits
  in
  let reference = hits Runtime.Volatile in
  List.iter
    (fun mode -> check_int "hit counts equal across modes" reference (hits mode))
    [ Runtime.Sw; Runtime.Hw; Runtime.Explicit ]

let run_cycles name mode =
  (Harness.run_benchmark name ~mode small).Harness.run.Cpu.cycles

let test_sw_slowest_hw_close () =
  List.iter
    (fun name ->
      let volatile = run_cycles name Runtime.Volatile in
      let hw = run_cycles name Runtime.Hw in
      let sw = run_cycles name Runtime.Sw in
      check_bool (name ^ ": SW slower than HW") true (sw > hw);
      check_bool (name ^ ": HW within 2x of volatile") true
        (float_of_int hw /. float_of_int volatile < 2.0);
      check_bool (name ^ ": SW has real overhead vs volatile") true
        (float_of_int sw /. float_of_int volatile > 1.2))
    [ "RB"; "Hash"; "LL" ]

let test_hw_beats_explicit () =
  List.iter
    (fun name ->
      let hw = run_cycles name Runtime.Hw in
      let explicit = run_cycles name Runtime.Explicit in
      check_bool
        (Fmt.str "%s: HW (%d) faster than Explicit (%d)" name hw explicit)
        true (hw < explicit))
    [ "RB"; "AVL"; "LL" ]

let test_explicit_translates_more () =
  let polb mode =
    let r = Harness.run_map (module Nvml_structures.Registry.Rb) ~mode small in
    r.Harness.run.Cpu.polb_accesses
  in
  check_bool
    (Fmt.str "Explicit POLB traffic (%d) exceeds HW's (%d)"
       (polb Runtime.Explicit) (polb Runtime.Hw))
    true
    (float_of_int (polb Runtime.Explicit) > 1.5 *. float_of_int (polb Runtime.Hw))

let test_sw_checks_dominate () =
  let r = Harness.run_map (module Nvml_structures.Registry.Rb) ~mode:Runtime.Sw small in
  check_bool "dynamic checks in the millions per 100k ops scale" true
    (r.Harness.checks.Harness.dynamic_checks > 10 * small.W.operation_count);
  let rhw = Harness.run_map (module Nvml_structures.Registry.Rb) ~mode:Runtime.Hw small in
  check_int "HW run has zero dynamic checks" 0
    rhw.Harness.checks.Harness.dynamic_checks

let test_sw_mispredicts_worse () =
  let mp mode =
    (Harness.run_map (module Nvml_structures.Registry.Splay) ~mode small)
      .Harness.run.Cpu.branch_mispredicts
  in
  check_bool "SW mispredicts more than volatile" true
    (mp Runtime.Sw > mp Runtime.Volatile)

let test_storep_fraction_small () =
  let r = Harness.run_map (module Nvml_structures.Registry.Rb) ~mode:Runtime.Hw small in
  let s = r.Harness.run in
  let frac = float_of_int s.Cpu.storeps /. float_of_int s.Cpu.mem_accesses in
  check_bool (Fmt.str "storeP fraction small (%.4f)" frac) true (frac < 0.05);
  check_bool "valb accesses rarer than polb" true
    (s.Cpu.valb_accesses < s.Cpu.polb_accesses)

let test_ll_harness () =
  let r = Harness.run_ll ~mode:Runtime.Hw ~nodes:500 ~iterations:2 () in
  check_bool "LL run did work" true (r.Harness.run.Cpu.loads > 1000);
  check_int "benchmark name" 0 (compare r.Harness.benchmark "LL")

let test_nvm_accesses_only_in_persistent_modes () =
  let nvm mode =
    (Harness.run_map (module Nvml_structures.Registry.Hash) ~mode small)
      .Harness.run.Cpu.nvm_accesses
  in
  check_int "volatile never touches NVM" 0 (nvm Runtime.Volatile);
  check_bool "HW touches NVM" true (nvm Runtime.Hw > 0)


(* Golden pins: the exact load/run statistics of the paper-preset shape
   for RB and Hash in every mode, on the cycle-accurate core.  Any change
   to the driver loop, the staging order or the dispatch cost moves one
   of these numbers. *)
let golden =
  [
    (* structure, mode, [run instrs; run cycles; load instrs; load cycles;
       dynamic checks; ra2va; va2ra; hits; misses] *)
    ("RB", Runtime.Volatile, [ 143434; 257536; 27483; 62571; 0; 0; 0; 1913; 0 ]);
    ("RB", Runtime.Sw, [ 820212; 959954; 213807; 310435; 72121; 19923; 294; 1913; 0 ]);
    ("RB", Runtime.Hw, [ 143434; 287637; 27483; 91723; 0; 19923; 0; 1913; 0 ]);
    ("RB", Runtime.Explicit, [ 217186; 378604; 44677; 112642; 0; 36876; 0; 1913; 0 ]);
    ("Hash", Runtime.Volatile, [ 63607; 113171; 19821; 45031; 0; 0; 0; 1913; 0 ]);
    ("Hash", Runtime.Sw, [ 339271; 410035; 135794; 197768; 23988; 10485; 349; 1913; 0 ]);
    ("Hash", Runtime.Hw, [ 63607; 135640; 19821; 70362; 0; 10485; 1; 1913; 0 ]);
    ("Hash", Runtime.Explicit, [ 90577; 166466; 29755; 82172; 0; 13485; 0; 1913; 0 ]);
  ]

let test_golden_pins () =
  List.iter
    (fun (name, mode, want) ->
      let r = Harness.run_benchmark name ~mode small in
      Alcotest.(check (list int))
        (Printf.sprintf "%s/%s pins" name (Runtime.mode_name mode))
        want
        [
          r.Harness.run.Cpu.instrs;
          r.Harness.run.Cpu.cycles;
          r.Harness.load.Cpu.instrs;
          r.Harness.load.Cpu.cycles;
          r.Harness.checks.Harness.dynamic_checks;
          r.Harness.checks.Harness.rel_to_abs;
          r.Harness.checks.Harness.abs_to_rel;
          r.Harness.hits;
          r.Harness.misses;
        ])
    golden

let () =
  Alcotest.run "kvstore"
    [
      ( "harness",
        [
          Alcotest.test_case "all reads hit" `Quick test_all_reads_hit;
          Alcotest.test_case "same behaviour across modes" `Quick
            test_same_behaviour_across_modes;
          Alcotest.test_case "LL harness" `Quick test_ll_harness;
          Alcotest.test_case "NVM access placement" `Quick
            test_nvm_accesses_only_in_persistent_modes;
          Alcotest.test_case "golden pins" `Quick test_golden_pins;
        ] );
      ( "paper-shapes",
        [
          Alcotest.test_case "SW slowest, HW close" `Slow
            test_sw_slowest_hw_close;
          Alcotest.test_case "HW beats Explicit" `Slow test_hw_beats_explicit;
          Alcotest.test_case "Explicit translates more" `Quick
            test_explicit_translates_more;
          Alcotest.test_case "SW checks dominate" `Quick
            test_sw_checks_dominate;
          Alcotest.test_case "SW mispredicts worse" `Quick
            test_sw_mispredicts_worse;
          Alcotest.test_case "storeP fraction small" `Quick
            test_storep_fraction_small;
        ] );
    ]
