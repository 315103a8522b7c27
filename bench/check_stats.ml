(* Schema checks for the telemetry documents the bench driver and the
   CLI write.

     check_stats.exe STATS.json           assert a stats document
                                          carries the keys the perf
                                          trajectory reads
     check_stats.exe --fuzz STATS.json    assert the fuzz.* counters a
                                          `nvml fuzz --stats` run must
                                          produce
     check_stats.exe --media STATS.json   assert the media.* counters a
                                          `nvml scrub --stats` run must
                                          produce
     check_stats.exe --same A B           assert byte equality (the
                                          --jobs determinism check)
     check_stats.exe --bench BENCH.json   assert the perf-trajectory
                                          document (BENCH_<n>.json) is
                                          well-formed; with
                                          --baseline BASE.json
                                          [--max-regress F] additionally
                                          fail if fast-mode wall-clock,
                                          any per-experiment ops/sec,
                                          any per-experiment latency
                                          percentile (p50/p99/p999), or
                                          any epoch-mode cycle-savings
                                          fraction regressed by more
                                          than F (default 1.2, i.e.
                                          +20%)

   The experiments' own metric invariants are not checked here:
   bench/main.exe checks the gates each experiment declares after every
   run. *)

module Json = Nvml_telemetry.Json
module Gate = Nvml_telemetry.Gate

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline m;
      exit 1)
    fmt

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let parse_doc path =
  match Json.of_string (read_file path) with
  | Ok doc -> doc
  | Error msg -> fail "%s: invalid JSON: %s" path msg

let number = function
  | Some (Json.Int n) -> Some (float_of_int n)
  | Some (Json.Float f) -> Some f
  | _ -> None

(* A stats document's derived.* and counters.* values as one flat
   metric set; every counter must be an integer. *)
let stats_metrics path doc =
  let section name ~integer =
    match Json.member name doc with
    | Some (Json.Obj kvs) ->
        List.map
          (fun (k, v) ->
            let key = name ^ "." ^ k in
            match v with
            | Json.Int n -> (key, float_of_int n)
            | Json.Float f when not integer -> (key, f)
            | _ ->
                fail "%s: %s is not %s" path key
                  (if integer then "an integer" else "a number"))
          kvs
    | _ -> []
  in
  section "derived" ~integer:false @ section "counters" ~integer:true

let stats_gates =
  Gate.groups ~prefix:"counters." ~suffix:"" (fun _ -> [])
  :: List.map
       (fun k -> Gate.present ("derived." ^ k))
       [ "valb.hit_rate"; "polb.hit_rate"; "check_sites.dynamic_fraction" ]

let fuzz_gates =
  [
    Gate.positive "counters.fuzz.runs";
    Gate.positive "counters.fuzz.ops";
    Gate.nonneg "counters.fuzz.violations";
    Gate.present "counters.fuzz.shrink_replays";
  ]

let media_gates =
  Gate.positive "counters.media.scrub.runs"
  :: Gate.positive "counters.media.scrub.pools"
  :: Gate.le "counters.media.scrub.repaired" "counters.media.scrub.detected"
  :: List.map
       (fun k -> Gate.nonneg ("counters.media." ^ k))
       [
         "scrub.unrepairable"; "scrub.lost_objects"; "read.flips";
         "read.poisons"; "read.transient_faults"; "read.retries";
         "healed_words"; "seals"; "writes_refused"; "attach.verified";
         "attach.dirty"; "attach.degraded";
       ]

let check_stats gates path =
  match Gate.check gates (stats_metrics path (parse_doc path)) with
  | [] -> Printf.printf "%s: ok\n" path
  | failures ->
      List.iter (fun f -> prerr_endline (path ^ ": " ^ f)) failures;
      exit 1

(* The persist.*.savings_vs_epoch1 metrics inside a document's optional
   "metrics" object — the epoch-mode cycle-savings fractions the
   --baseline comparison floors. *)
let persist_savings doc =
  let metrics =
    match Json.member "metrics" doc with
    | Some (Json.Obj kvs) -> kvs
    | _ -> []
  in
  let suffix = ".savings_vs_epoch1" in
  List.filter_map
    (fun (k, v) ->
      let lk = String.length k and ls = String.length suffix in
      if
        lk > ls
        && String.sub k (lk - ls) ls = suffix
        && String.length k > 8
        && String.sub k 0 8 = "persist."
      then Option.map (fun f -> (k, f)) (number (Some v))
      else None)
    metrics

(* The percentile ladder inside a BENCH experiment entry's "latency"
   object, as written by the driver from the merged per-experiment
   recorder. *)
let latency_percentiles path name e =
  match Json.member "latency" e with
  | None -> None
  | Some lat ->
      let get key =
        match number (Json.member key lat) with
        | Some f when f >= 0.0 -> f
        | Some _ -> fail "%s: %s: latency.%s is negative" path name key
        | None -> fail "%s: %s: missing numeric latency.%s" path name key
      in
      let p50 = get "p50" and p90 = get "p90" and p99 = get "p99" in
      let p999 = get "p999" and pmax = get "max" in
      if get "count" <= 0.0 then
        fail "%s: %s: latency.count is not positive" path name;
      if not (p50 <= p90 && p90 <= p99 && p99 <= p999 && p999 <= pmax) then
        fail "%s: %s: latency percentiles not monotone" path name;
      Some (p50, p99, p999)

(* Baseline-side variant: a baseline document may predate the latency
   instrumentation or carry a partial ladder from an older driver — that
   must soften the comparison (skip with a note), never fail it.  Only
   the document under test is held to the full schema. *)
let latency_percentiles_lenient e =
  match Json.member "latency" e with
  | None -> None
  | Some lat -> (
      let get key =
        match number (Json.member key lat) with
        | Some f when f >= 0.0 -> Some f
        | _ -> None
      in
      match (get "p50", get "p99", get "p999", get "count") with
      | Some p50, Some p99, Some p999, Some count when count > 0.0 ->
          Some (p50, p99, p999)
      | _ -> None)

let check_bench ?baseline ?(max_regress = 1.2) path =
  let doc = parse_doc path in
  (match Json.member "kind" doc with
  | Some (Json.String "bench-trajectory") -> ()
  | _ -> fail "%s: kind is not \"bench-trajectory\"" path);
  let num keys =
    match number (Json.path keys doc) with
    | Some f -> f
    | None -> fail "%s: missing numeric %s" path (String.concat "." keys)
  in
  let suite = num [ "suite_wall_s" ] in
  if suite <= 0.0 then fail "%s: suite_wall_s is not positive" path;
  let fast = num [ "mode_breakdown"; "fast_wall_s" ] in
  let cycle = num [ "mode_breakdown"; "cycle_wall_s" ] in
  let other = num [ "mode_breakdown"; "other_wall_s" ] in
  if fast < 0.0 || cycle < 0.0 || other < 0.0 then
    fail "%s: negative mode breakdown entry" path;
  if fast +. cycle +. other > suite *. 1.05 +. 0.05 then
    fail "%s: mode breakdown (%.3f) exceeds suite_wall_s (%.3f)" path
      (fast +. cycle +. other) suite;
  let experiments =
    match Json.member "experiments" doc with
    | Some (Json.List (_ :: _ as exps)) ->
        List.map
          (fun e ->
            let name =
              match Json.member "name" e with
              | Some (Json.String s) -> s
              | _ -> fail "%s: experiment entry without a name" path
            in
            (match Json.member "mode" e with
            | Some (Json.String ("fast" | "cycle" | "other")) -> ()
            | _ -> fail "%s: %s: bad mode (want fast|cycle|other)" path name);
            List.iter
              (fun key ->
                match number (Json.member key e) with
                | Some f when f >= 0.0 -> ()
                | Some _ -> fail "%s: %s: negative %s" path name key
                | None -> fail "%s: %s: missing numeric %s" path name key)
              [ "wall_s"; "ops"; "ops_per_s" ];
            let ops_per_s =
              match number (Json.member "ops_per_s" e) with
              | Some f -> f
              | None -> 0.0
            in
            let wall =
              match number (Json.member "wall_s" e) with
              | Some f -> f
              | None -> 0.0
            in
            (* The rate derives from the wall as written (ms
               resolution), and is 0 when that wall is 0; both print to
               6 significant digits. *)
            let ops =
              Option.value ~default:0.0 (number (Json.member "ops" e))
            in
            let rate = if wall > 0.0 then ops /. wall else 0.0 in
            if Float.abs (ops_per_s -. rate) > 1e-4 *. rate then
              fail "%s: %s: ops_per_s %g disagrees with ops / wall_s = %g" path
                name ops_per_s rate;
            (name, ops_per_s, wall, latency_percentiles path name e))
          exps
    | _ -> fail "%s: missing or empty experiments list" path
  in
  let latencies =
    List.filter_map
      (fun (name, _, _, lat) -> Option.map (fun p -> (name, p)) lat)
      experiments
  in
  (* Epoch-mode cycle savings: when the document carries the persist
     experiment's metrics, each savings fraction must be positive —
     a relaxed model that stopped beating the per-op flush+fence
     baseline is a drain-engine regression regardless of wall-clock. *)
  let savings = persist_savings doc in
  List.iter
    (fun (key, f) ->
      if f <= 0.0 then
        fail "%s: %s is %g, expected > 0 (epoch-mode savings floor)" path key
          f)
    savings;
  (match baseline with
  | None -> ()
  | Some base_path ->
      let base = parse_doc base_path in
      (* A baseline written by an older driver may predate whole
         sections (BENCH_6/7 carry no serving or latency data, earlier
         documents no mode breakdown).  Those comparisons are skipped
         with a note — a stale baseline must never turn into a hard
         schema error on the document under test. *)
      (match number (Json.path [ "mode_breakdown"; "fast_wall_s" ] base) with
      | None ->
          Printf.printf
            "%s: baseline predates mode_breakdown; fast-wall check skipped\n"
            base_path
      | Some base_fast ->
          if base_fast > 0.0 && fast > base_fast *. max_regress then
            fail
              "%s: fast-mode wall-clock regressed: %.3fs > %.3fs (baseline \
               %.3fs x %.2f)"
              path fast (base_fast *. max_regress) base_fast max_regress;
          Printf.printf
            "%s: fast-mode wall %.3fs within %.2fx of baseline %.3fs\n" path
            fast max_regress base_fast);
      (* Per-experiment throughput floors: a serving-path regression in
         one experiment must not hide inside an overall-faster suite,
         so each experiment's ops/sec is checked against its own
         baseline entry (ops/sec is higher-better, hence the division).
         Skipped per-experiment when the baseline has no entry or a
         zero rate. *)
      let base_rates =
        match Json.member "experiments" base with
        | Some (Json.List exps) ->
            List.filter_map
              (fun e ->
                match
                  ( Json.member "name" e,
                    number (Json.member "ops_per_s" e),
                    number (Json.member "wall_s" e) )
                with
                | Some (Json.String name), Some rate, Some wall ->
                    Some (name, (rate, wall))
                | _ -> None)
              exps
        | _ -> []
      in
      (* An experiment that finishes in a few milliseconds has an
         ops/sec dominated by timer resolution, not by the code under
         test — a 1ms-vs-3ms flap reads as a 3x "regression".  Both
         runs must clear the noise floor for the ratio to mean
         anything. *)
      let wall_noise_floor = 0.05 in
      let rate_checked = ref 0 and rate_noisy = ref 0 in
      List.iter
        (fun (name, ops_per_s, wall, _) ->
          match List.assoc_opt name base_rates with
          | Some (base_rate, base_wall) when base_rate > 0.0 && ops_per_s > 0.0
            ->
              if wall < wall_noise_floor || base_wall < wall_noise_floor then
                incr rate_noisy
              else begin
                incr rate_checked;
                if ops_per_s < base_rate /. max_regress then
                  fail
                    "%s: %s: ops/sec regressed: %.0f < %.0f (baseline %.0f / \
                     %.2f)"
                    path name ops_per_s (base_rate /. max_regress) base_rate
                    max_regress
              end
          | _ -> ())
        experiments;
      if !rate_checked > 0 then
        Printf.printf
          "%s: throughput floors ok (%d experiments within %.2fx of \
           baseline%s)\n"
          path !rate_checked max_regress
          (if !rate_noisy > 0 then
             Printf.sprintf "; %d below the %.0fms noise floor skipped"
               !rate_noisy (wall_noise_floor *. 1000.)
           else "");
      (* Per-percentile latency budgets: cycle-domain percentiles are
         deterministic, so any increase is a real per-op latency
         regression, not measurement noise — the budget factor bounds
         the worst acceptable drift.  Skipped per-experiment when the
         baseline predates latency instrumentation. *)
      let lat_skipped = ref 0 in
      let base_lats =
        match Json.member "experiments" base with
        | Some (Json.List exps) ->
            List.filter_map
              (fun e ->
                match Json.member "name" e with
                | Some (Json.String name) -> (
                    match latency_percentiles_lenient e with
                    | Some p -> Some (name, p)
                    | None ->
                        if Json.member "latency" e <> None then
                          incr lat_skipped;
                        None)
                | _ -> None)
              exps
        | _ -> []
      in
      if !lat_skipped > 0 then
        Printf.printf
          "%s: %d baseline latency entries predate the full percentile \
           ladder; their budgets skipped\n"
          base_path !lat_skipped;
      let checked = ref 0 in
      List.iter
        (fun (name, (p50, p99, p999)) ->
          match List.assoc_opt name base_lats with
          | None -> ()
          | Some (b50, b99, b999) ->
              incr checked;
              List.iter
                (fun (pct, cur, base) ->
                  if base > 0.0 && cur > base *. max_regress then
                    fail
                      "%s: %s: latency.%s regressed: %.0f > %.0f cycles \
                       (baseline %.0f x %.2f)"
                      path name pct cur (base *. max_regress) base max_regress)
                [ ("p50", p50, b50); ("p99", p99, b99); ("p999", p999, b999) ])
        latencies;
      if !checked > 0 then
        Printf.printf
          "%s: latency budgets ok (%d experiments within %.2fx of baseline)\n"
          path !checked max_regress
      else if latencies <> [] && base_lats = [] then
        Printf.printf
          "%s: baseline carries no latency data; latency budgets skipped\n"
          base_path;
      (* Epoch-mode savings floors against the baseline: the fractions
         are cycle-domain deterministic, so any drop beyond the budget
         factor is a real coalescing regression.  Skipped (with a note)
         when the baseline predates the persist experiment. *)
      let base_savings = persist_savings base in
      let sav_checked = ref 0 in
      List.iter
        (fun (key, f) ->
          match List.assoc_opt key base_savings with
          | Some base_f when base_f > 0.0 ->
              incr sav_checked;
              if f < base_f /. max_regress then
                fail
                  "%s: %s regressed: %.4f < %.4f (baseline %.4f / %.2f)" path
                  key f (base_f /. max_regress) base_f max_regress
          | _ -> ())
        savings;
      if !sav_checked > 0 then
        Printf.printf
          "%s: epoch-mode savings floors ok (%d cells within %.2fx of \
           baseline)\n"
          path !sav_checked max_regress
      else if savings <> [] && base_savings = [] then
        Printf.printf
          "%s: baseline predates persist savings; savings floors skipped\n"
          base_path);
  Printf.printf "%s: ok (suite %.3fs; fast %.3fs, cycle %.3fs, other %.3fs)\n"
    path suite fast cycle other

let () =
  match Array.to_list Sys.argv with
  | [ _; "--same"; a; b ] ->
      if read_file a <> read_file b then fail "%s and %s differ" a b
  | [ _; "--fuzz"; path ] -> check_stats fuzz_gates path
  | [ _; "--media"; path ] -> check_stats media_gates path
  | [ _; "--bench"; path ] -> check_bench path
  | [ _; "--bench"; path; "--baseline"; base ] -> check_bench ~baseline:base path
  | [ _; "--bench"; path; "--baseline"; base; "--max-regress"; f ] -> (
      match float_of_string_opt f with
      | Some max_regress when max_regress > 0.0 ->
          check_bench ~baseline:base ~max_regress path
      | _ -> fail "--max-regress expects a positive float, got %S" f)
  | [ _; path ] -> check_stats stats_gates path
  | _ ->
      fail
        "usage: check_stats [--same A B | --fuzz STATS.json | --media \
         STATS.json | --bench BENCH.json [--baseline BASE.json \
         [--max-regress F]] | STATS.json]"
