(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation section (and the supporting analyses) against the
   simulated machine.

   Usage:
     dune exec bench/main.exe                 # everything, paper scale
     dune exec bench/main.exe -- --quick      # 10x smaller workloads
     dune exec bench/main.exe -- fig11 table5 # selected experiments
     dune exec bench/main.exe -- --jobs 4     # parallel simulation cells
     dune exec bench/main.exe -- --bench BENCH_6.json  # perf trajectory
     dune exec bench/main.exe -- --stats stats.json --trace trace.json
     dune exec bench/main.exe -- --metrics-json m.json  # metrics only
     dune exec bench/main.exe -- --list

   Independent simulation cells run on a domain worker pool sized by
   --jobs (or the NVML_JOBS environment variable; default: the
   machine's recommended domain count).  --jobs 1 reproduces the
   sequential output exactly.

   After writing its documents the driver checks the gates every
   experiment that ran declares (Experiments.all) against the run's
   metrics; on any failure it names the experiment, key and value on
   stderr and exits 1.  Unknown flags, a flag missing its value and a
   repeated experiment are rejected up front. *)

module Workload = Nvml_ycsb.Workload
module Pool = Nvml_exec.Pool
module Telemetry = Nvml_telemetry.Telemetry
module Json = Nvml_telemetry.Json
module Profile = Nvml_kvstore.Profile
module Gate = Nvml_telemetry.Gate

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline m;
      exit 1)
    fmt

let value_flags =
  [ "--jobs"; "--bench"; "--stats"; "--trace"; "--metrics-json" ]
let switches = [ "--list"; "--quick"; "--quiet" ]

(* Removed flags, by bare name, and what replaced them. *)
let removed_flags =
  [
    ( "json",
      "--bench FILE, whose document carries the workload, wall times and \
       metrics" );
  ]

(* Split the command line into flag values, switches and experiment
   names, rejecting anything it cannot place. *)
let parse_args args =
  let rec go values set names = function
    | [] -> (values, set, List.rev names)
    | flag :: rest when List.mem flag value_flags -> (
        if List.mem_assoc flag values then fail "%s given twice" flag;
        match rest with
        | v :: rest -> go ((flag, v) :: values) set names rest
        | [] -> fail "%s expects a value" flag)
    | flag :: rest when List.mem flag switches ->
        go values (flag :: set) names rest
    | a :: _ when String.length a > 1 && a.[0] = '-' -> (
        let bare = String.sub a 2 (max 0 (String.length a - 2)) in
        match List.assoc_opt bare removed_flags with
        | Some instead when String.starts_with ~prefix:"--" a ->
            fail "%s was removed: use %s" a instead
        | _ ->
            fail "unknown option %s (options: %s)" a
              (String.concat " " (switches @ value_flags)))
    | name :: rest ->
        if List.mem name names then fail "experiment %s given twice" name;
        go values set (name :: names) rest
  in
  go [] [] [] args

(* Metric values print as JSON integers when integral. *)
let number x =
  if Float.is_integer x && Float.abs x < 1e15 then Json.Int (int_of_float x)
  else Json.Float x

(* The run's metrics as one object, shared by every document that
   carries them; a name recorded twice is an experiment bug, never two
   values to keep. *)
let metrics_object metrics =
  let seen = Hashtbl.create 256 in
  Json.Obj
    (List.map
       (fun (name, v) ->
         if Hashtbl.mem seen name then fail "metric %s recorded twice" name;
         Hashtbl.add seen name ();
         (name, number v))
       metrics)

(* Walls are written at millisecond resolution, and each rate derives
   from the wall as written: an experiment that took 0.000 s reports no
   rate (0), never ops / 1e-7 s. *)
let ms s = Float.round (s *. 1000.) /. 1000.

(* The perf-trajectory document (BENCH_<n>.json): the workload, suite
   wall-clock, a wall-clock breakdown by execution mode, per-experiment
   wall, operation count, ops/sec and latency summary, and the
   deterministic metrics, so trajectory baselines can floor more than
   wall-clocks.  Schema checked by [check_stats --bench]. *)
let bench_json ~spec ~quick ~jobs ~timings ~total metrics =
  let open Experiments in
  let wall_of m =
    List.fold_left
      (fun acc (e, wall, _, _) -> if e.mode = m then acc +. wall else acc)
      0.0 timings
  in
  Json.Obj
    [
      ("schema", Json.Int 1);
      ("kind", Json.String "bench-trajectory");
      ("workload", Json.String (Fmt.str "%a" Workload.pp_spec spec));
      ("quick", Json.Bool quick);
      ("jobs", Json.Int jobs);
      ("suite_wall_s", Json.Float (ms total));
      ( "mode_breakdown",
        Json.Obj
          (List.map
             (fun m -> (mode_name m ^ "_wall_s", Json.Float (ms (wall_of m))))
             [ Fast; Cycle; Other ]) );
      ( "experiments",
        Json.List
          (List.map
             (fun (e, wall, ops, lat) ->
               let wall = ms wall in
               let rate =
                 if wall > 0.0 then float_of_int ops /. wall else 0.0
               in
               Json.Obj
                 ([
                    ("name", Json.String e.name);
                    ("mode", Json.String (mode_name e.mode));
                    ("wall_s", Json.Float wall);
                    ("ops", Json.Int ops);
                    ("ops_per_s", number rate);
                  ]
                 @
                 match lat with
                 | None -> []
                 | Some o ->
                     [ ("latency", Nvml_runtime.Oplat.summary_json o) ]))
             timings) );
      ("metrics", metrics);
    ]

let () =
  let args =
    List.filter (fun a -> a <> "--") (List.tl (Array.to_list Sys.argv))
  in
  let values, set, selected = parse_args args in
  if List.mem "--list" set then begin
    List.iter
      (fun e -> Printf.printf "%-14s %s\n" e.Experiments.name e.Experiments.doc)
      Experiments.all;
    exit 0
  end;
  let value flag = List.assoc_opt flag values in
  let jobs =
    match value "--jobs" with
    | Some s -> (
        match int_of_string_opt s with
        | Some n when n >= 1 -> n
        | _ -> fail "--jobs expects a positive integer, got %S" s)
    | None -> (
        try Pool.default_jobs () with Invalid_argument msg -> fail "%s" msg)
  in
  (* Open the output sinks before the (long) run so a bad path fails fast. *)
  let open_sink flag =
    Option.map
      (fun path ->
        try open_out path with Sys_error msg -> fail "%s: %s" flag msg)
      (value flag)
  in
  let bench_out = open_sink "--bench" in
  let stats_out = open_sink "--stats" in
  let trace_out = open_sink "--trace" in
  let metrics_out = open_sink "--metrics-json" in
  (* [--trace] records the whole run: enable telemetry up front so the
     worker-pool sinks exist and merge into this domain's at each join. *)
  if trace_out <> None then Telemetry.set_enabled true;
  let quick = List.mem "--quick" set in
  let verbose = not (List.mem "--quiet" set) in
  let spec =
    if quick then Workload.scale Workload.paper_default 10
    else Workload.paper_default
  in
  let chosen =
    match selected with
    | [] -> Experiments.all
    | names ->
        List.map
          (fun n ->
            match
              List.find_opt (fun e -> e.Experiments.name = n) Experiments.all
            with
            | Some e -> e
            | None -> fail "unknown experiment %S (try --list)" n)
          names
  in
  let pool = Pool.create ~jobs () in
  let ctx = { Experiments.spec; verbose; pool } in
  Printf.printf
    "nvml benchmark harness — workload: %s%s\n"
    (Fmt.str "%a" Workload.pp_spec spec)
    (if quick then " [quick]" else "");
  let t0 = Unix.gettimeofday () in
  let timings =
    List.map
      (fun e ->
        let te = Unix.gettimeofday () in
        ignore (Report.ops_take () : int);
        ignore (Report.lat_take ());
        e.Experiments.run ctx;
        let wall = Unix.gettimeofday () -. te in
        (e, wall, Report.ops_take (), Report.lat_take ()))
      chosen
  in
  let total = Unix.gettimeofday () -. t0 in
  Printf.printf "\nTotal wall time: %.1fs\n" total;
  let metrics = Report.metrics_snapshot () in
  let metrics_json = metrics_object metrics in
  let write oc doc =
    Json.to_channel ~lines:2 oc doc;
    output_char oc '\n';
    close_out oc
  in
  Option.iter
    (fun oc ->
      write oc (bench_json ~spec ~quick ~jobs ~timings ~total metrics_json))
    bench_out;
  Option.iter
    (fun oc ->
      (* The metrics alone, without wall timings — byte-identical across
         [--jobs N] by construction, which the determinism gate relies
         on. *)
      write oc (Json.Obj [ ("schema", Json.Int 1); ("metrics", metrics_json) ]))
    metrics_out;
  Option.iter
    (fun oc ->
      (* The stats document from the profile run — produced on demand
         when the [profile] experiment was not part of the selection. *)
      let p =
        match !Experiments.last_profile with
        | Some p -> p
        | None -> Profile.run ~par:(Pool.run pool) ~benchmark:"RB" spec
      in
      Json.to_channel oc (Profile.stats_json p);
      output_char oc '\n';
      close_out oc)
    stats_out;
  Option.iter
    (fun oc ->
      Telemetry.write_chrome_trace oc;
      close_out oc)
    trace_out;
  Pool.shutdown pool;
  (* Every experiment that ran is held to its declared invariants. *)
  let failures =
    List.concat_map
      (fun (e, _, _, _) ->
        List.map
          (fun f -> Printf.sprintf "gate failed: %s: %s" e.Experiments.name f)
          (Gate.check e.Experiments.gates metrics))
      timings
  in
  List.iter prerr_endline failures;
  if failures <> [] then exit 1
