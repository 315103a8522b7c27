(* Section VII-B's soundness check: every corpus program must print on
   each configuration exactly what it prints natively (volatile mode,
   DRAM heap).  The configurations cover both translation schemes on
   both heaps, plus the SW scheme with the inference pass's checks
   elided on a persistent heap. *)

module Runtime = Nvml_runtime.Runtime
module Interp = Nvml_minic.Interp
module Corpus = Nvml_minic.Corpus

type config = { mode : Runtime.mode; persistent : bool; inference : bool }

let configs =
  let c ?(inference = false) mode persistent =
    { mode; persistent; inference }
  in
  [
    c Runtime.Sw false;
    c Runtime.Sw true;
    c Runtime.Hw false;
    c Runtime.Hw true;
    c ~inference:true Runtime.Sw true;
  ]

let config_name c =
  if c.inference then Runtime.mode_name c.mode ^ "+inference"
  else Runtime.mode_name c.mode ^ if c.persistent then "/NVM" else "/DRAM"

let run_config program c =
  let plan =
    if c.inference then Some (Inference.plan (Inference.infer program))
    else None
  in
  let { mode; persistent; _ } = c in
  (Interp.run_fresh ?plan ~mode ~persistent program).Interp.outputs.(0)

let check program =
  let native =
    run_config program
      { mode = Runtime.Volatile; persistent = false; inference = false }
  in
  List.map (fun c -> (c, run_config program c = native)) configs

let run ?(par = List.map (fun f -> f ())) () =
  List.combine (List.map fst Corpus.all)
    (par (List.map (fun (_, program) () -> check program) Corpus.all))

let mismatches rows =
  List.fold_left
    (fun n (_, checks) ->
      n + List.length (List.filter (fun (_, ok) -> not ok) checks))
    0 rows
