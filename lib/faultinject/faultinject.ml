(* Systematic crash-point fault injection for the persistence stack.

   One engine runs every sweep, and an oracle plugs into it.  A
   *reference* pass counts every persistence-relevant event (NVM word
   stores, storeP retirements, undo-log appends, allocator-metadata
   writes — see [Nvml_simmem.Fi]) while the oracle watches the
   workload.  Then, for each chosen event index k, a *crash* pass
   replays the identical workload on a fresh machine and kills the
   power at event k: the fi hook raises before the store lands and the
   media is frozen so nothing written during unwinding reaches it.  The
   machine is then rebooted ([Runtime.crash_and_restart] — DRAM,
   mappings and microarchitectural state gone), the pool re-opened at a
   skewed base, and the oracle recovers and checks the state.

   The transactional oracle ([run]) records the structure's contents at
   every operation boundary, recovers the undo log, and validates:

     - recovery returns [Clean] or [Rolled_back n];
     - the structure's invariants hold and its contents walk does not
       dangle (every pointer reached through the re-opened pool still
       resolves);
     - atomicity: contents equal the pre-transaction snapshot (always
       acceptable; mandatory when [Rolled_back n > 0]) or the
       post-transaction snapshot (acceptable for [Clean] and
       [Rolled_back 0], which happen when the crash splits the two
       commit stores);
     - the persistent freelist is consistent and its allocated-byte
       total matches the pre- or post-transaction figure under the same
       rule.

   Workloads run their operations under [Txn.instrument], the paper's
   "compiler inserts the necessary runtime logging": structure code
   calls plain [Runtime.store_*] and every pool store (and pmalloc /
   pfree metadata write) is undo-logged transparently.

   Torn writes: with [torn] set, the word interrupted at the crash
   point is additionally replaced by a seeded byte-granular mix of its
   old and new value ([Fi.torn_word]) — unless the word belongs to the
   undo log itself, which relies on the 8-byte-atomicity guarantee real
   NVM provides for aligned word stores (the same assumption PMDK's
   undo log makes).  Every torn data word was undo-logged before being
   stored, so recovery must heal it; the checker verifies that.  Under
   a relaxed persistency model the interesting tear moves to the
   [Flush_line] µ-events: a crash mid-drain leaves one word of the
   interrupted line as a byte mix of its durable and its buffered
   value.

   Contract oracle.  Under a relaxed persistency model ([--persist
   epoch:N | lazy]) losing an op suffix at a crash is *legitimate* —
   the model's contract is weaker, not broken.  The reference pass
   therefore doubles as a pure oracle over the µ-event schedule: it
   tracks the durable values of the undo log's control words (which
   are write-through under every model) and predicts, for every event
   index, the exact recovery outcome ([Clean] / [Rolled_back n]) and
   the exact op boundary whose snapshot the recovered state must
   equal.  The crash passes then check the observed recovery against
   the prediction in both directions: a state that lost more than
   predicted AND a state that retained more than predicted are both
   hard failures.  The eager model is the degenerate case: the oracle
   predicts per-operation atomicity, strictly subsuming the pre/post
   snapshot rule described above.

   The durable-linearizability oracle ([run_conc]) checks the
   concurrent structures of the multi-core machine; it is described
   with its code below. *)

module Layout = Nvml_simmem.Layout
module Mem = Nvml_simmem.Mem
module Physmem = Nvml_simmem.Physmem
module Fi = Nvml_simmem.Fi
module Ptr = Nvml_core.Ptr
module Xlate = Nvml_core.Xlate
module Pmop = Nvml_pool.Pmop
module Runtime = Nvml_runtime.Runtime
module Persist = Nvml_runtime.Persist
module Site = Nvml_runtime.Site
module Txn = Nvml_runtime.Txn
module Intf = Nvml_structures.Intf
module Registry = Nvml_structures.Registry
module Snapshot = Nvml_structures.Snapshot
module Workload = Nvml_ycsb.Workload
module Driver = Nvml_kvstore.Driver
module Telemetry = Nvml_telemetry.Telemetry

let site = Site.make ~static:true "faultinject"

let c_points = Telemetry.counter "fi.points"
let c_clean = Telemetry.counter "fi.recovered_clean"
let c_rolled_back = Telemetry.counter "fi.recovered_rolled_back"
let c_torn = Telemetry.counter "fi.torn_injected"
let c_violations = Telemetry.counter "fi.violations"
let c_suffix_lost = Telemetry.counter "fi.suffix_lost"

(* --- workloads ---------------------------------------------------------- *)

(* A bootable instance: [step i] runs operation [i] (the engine wraps
   it in a transaction), [snapshot] walks the contents, [check] raises
   on broken structural invariants. *)
type instance = {
  header : Ptr.t;
  step : int -> unit;
  snapshot : unit -> Snapshot.t;
  check : unit -> unit;
}

type workload = {
  name : string;
  ops : int;
  setup : Runtime.t -> pool:int -> instance;
  reattach : Runtime.t -> Ptr.t -> instance;
}

(* A flat array of persistent counters, [ops] transactions of three
   scattered stores each — the smallest workload whose transactions
   have interesting intermediate states. *)
let counter_workload ?(cells = 8) ?(ops = 3) () =
  let o_cell i = 8 + (i * 8) in
  let instance rt header =
    {
      header;
      step =
        (fun i ->
          let v = Int64.of_int (i + 1) in
          Runtime.store_word rt ~site header ~off:(o_cell (i mod cells)) v;
          Runtime.store_word rt ~site header ~off:(o_cell ((i + 3) mod cells)) v;
          Runtime.store_word rt ~site header
            ~off:(o_cell ((i + 5) mod cells))
            (Int64.neg v));
      snapshot =
        (fun () ->
          List.init cells (fun i ->
              ( Int64.of_int i,
                Runtime.load_word rt ~site header ~off:(o_cell i) )));
      check =
        (fun () ->
          let n = Runtime.load_word rt ~site header ~off:0 in
          if n <> Int64.of_int cells then
            Fmt.failwith "counter header: %Ld cells, expected %d" n cells);
    }
  in
  {
    name = "counter";
    ops;
    setup =
      (fun rt ~pool ->
        let header =
          Runtime.alloc rt ~pool ~persistent:true (8 + (cells * 8))
        in
        Runtime.store_word rt ~site header ~off:0 (Int64.of_int cells);
        for i = 0 to cells - 1 do
          Runtime.store_word rt ~site header ~off:(o_cell i) 0L
        done;
        instance rt header);
    reattach = (fun rt header -> instance rt header);
  }

(* The KV harness shape: populate a Table III structure, then replay a
   YCSB stream, with every seventh slot replaced by a remove so
   pfree's freelist updates are exercised under rollback too. *)
let kv_workload ?(structure = "RB") ?(records = 30) ?(ops = 100) ?(seed = 42)
    () =
  let (module M : Intf.ORDERED_MAP) = Registry.find_map structure in
  let spec =
    {
      Workload.paper_default with
      record_count = records;
      operation_count = ops;
      seed;
    }
  in
  let ops = Driver.stream spec in
  let instance m =
    {
      header = M.header m;
      step =
        (fun i ->
          if i mod 7 = 3 then
            ignore (M.remove m (Workload.key_of_index (i * 3 mod records)))
          else Driver.apply_at (module M) m ops i);
      snapshot = (fun () -> Snapshot.capture (fun f -> M.iter m f));
      check = (fun () -> M.check_invariants m);
    }
  in
  {
    name = "kv-" ^ M.name;
    ops = Driver.length ops;
    setup =
      (fun rt ~pool ->
        let m = M.create rt (Runtime.Pool_region pool) in
        for i = 0 to records - 1 do
          M.insert m ~key:(Workload.key_of_index i) ~value:(Int64.of_int i)
        done;
        instance m);
    reattach = (fun rt header -> instance (M.attach rt header));
  }

(* --- sweep specification and report ------------------------------------- *)

type spec = {
  every_n : int;  (* crash at events 0, n, 2n, ... (when [at] is empty) *)
  at : int list;  (* explicit event indices instead *)
  torn : bool;
  seed : int;  (* torn byte masks; the conc schedule *)
  max_points : int option;
  break_recovery : bool;
      (* checker self-test: skip Txn.recover and let the checker prove
         it notices the un-rolled-back state *)
}

let default_spec =
  {
    every_n = 1;
    at = [];
    torn = false;
    seed = 1;
    max_points = None;
    break_recovery = false;
  }

type tally = {
  pm_stores : int;
  storeps : int;
  log_appends : int;
  meta_writes : int;
  flushes : int;  (* drain Flush_line µ-events (relaxed models only) *)
  fences : int;  (* drain Fence µ-events (relaxed models only) *)
}

type outcome = {
  point : int;  (* the event index the crash interrupted *)
  op : int;  (* the op that event belonged to; conc: ops completed *)
  kind : string;  (* Fi.kind_name of the interrupted event *)
  recovery : Txn.recovery;
  lost_ops : int;  (* completed ops whose effects the model let die *)
  torn_injected : bool;
  violations : string list;
}

type report = {
  workload : string;
  persist : string;  (* Persist.model_name of the swept model *)
  ops : int;
  events : int;
  tally : tally;
  outcomes : outcome list;
  clean : int;
  rolled_back : int;
  suffix_lost : int;  (* points at which >= 1 committed op was lost *)
  torn_injected : int;
  violations : (int * string) list;  (* (point, message) *)
}

(* --- engine ------------------------------------------------------------- *)

let pool_size = 1 lsl 22

exception Crash_now
(* Raised from the fi hook at the crash point; private to the engine
   (and never escapes: the replay loop catches it). *)

(* What an oracle plugs into the engine.  ['s] is the state [setup]
   builds on each machine, ['r] what the reference pass learns. *)
type ('s, 'r) oracle = {
  name : string;
  ops : int;
  setup : Runtime.t -> pool:int -> anchor:(Ptr.t -> Ptr.t -> unit) -> 's;
      (* build the workload, then [anchor] the two headers recovery
         starts from *)
  reference : Runtime.t -> pool:int -> 's -> (Fi.event -> unit) * (unit -> 'r);
      (* an observer that sees every event before it lands, and the
         workload run it observes *)
  replay : Runtime.t -> 's -> unit;  (* the same workload, unobserved *)
  tear : Runtime.t -> 's -> point:int -> Fi.event -> (unit -> unit) option;
      (* [spec.torn]: tear the interrupted word; [Some f] means a word
         was torn, and [f] runs once the machine has rebooted *)
  locate : 'r -> int -> int * int;  (* a point's [op] and [lost_ops] *)
  verdict :
    'r -> Runtime.t -> pool:int -> point:int -> add:(string -> unit) ->
    Ptr.t -> Ptr.t -> Txn.recovery;
      (* recover from the two anchored headers and check the contract,
         reporting each violation through [add] *)
}

let at_least_1 flag v =
  if v < 1 then Fmt.invalid_arg "faultinject: %s must be >= 1, got %d" flag v

(* Build a fresh machine and pool and let the oracle set its workload
   up; [anchor] stores two headers in a root block, as an application
   would, so recovery can find them after the pool re-opens at a skewed
   base.  Setup is then made durable before any fi hook installs, so
   reference and crash passes count identical event schedules. *)
let boot ~mode ~persist o =
  let rt = Runtime.create ~mode ~persist () in
  let pool = Runtime.create_pool rt ~name:"fi" ~size:pool_size in
  let anchor h0 h1 =
    let root = Runtime.alloc rt ~pool ~persistent:true 16 in
    Runtime.store_ptr rt ~site root ~off:0 h0;
    Runtime.store_ptr rt ~site root ~off:8 h1;
    Runtime.set_root rt ~site ~pool root
  in
  let s = o.setup rt ~pool ~anchor in
  Runtime.persist_sync rt;
  (rt, pool, s)

(* Install the fi hook.  [on_event i ev] runs before event [i] lands;
   at event [crash_at] the power goes off: the media freezes, so
   nothing written while unwinding may land, and [Crash_now] unwinds
   the workload.  The returned function removes the hook and gives the
   event count and the crash event's kind ([None]: never reached). *)
let hook rt ~crash_at on_event =
  let phys = Mem.phys (Runtime.mem rt) in
  let idx = ref 0 and kind = ref None in
  Physmem.set_fi_hook phys
    (Some
       (fun ev ->
         let i = !idx in
         incr idx;
         on_event i ev;
         if i = crash_at then begin
           kind := Some (Fi.kind_name ev);
           Physmem.set_frozen phys true;
           raise Crash_now
         end));
  fun () ->
    Physmem.set_fi_hook phys None;
    (!idx, !kind)

(* The reference pass: the oracle observes the whole workload while the
   engine counts the events by kind. *)
let reference ~mode ~persist o =
  let rt, pool, s = boot ~mode ~persist o in
  let observe, run = o.reference rt ~pool s in
  let pm = ref 0 and sp = ref 0 and la = ref 0 and mw = ref 0 in
  let fl = ref 0 and fe = ref 0 in
  let unhook =
    hook rt ~crash_at:(-1) (fun _ ev ->
        observe ev;
        incr
          (match ev with
          | Fi.Pm_store _ -> pm
          | Fi.Storep_retire -> sp
          | Fi.Txn_log_append -> la
          | Fi.Alloc_meta_write _ -> mw
          | Fi.Flush_line _ -> fl
          | Fi.Fence -> fe))
  in
  let r = run () in
  let events, _ = unhook () in
  let tally =
    {
      pm_stores = !pm;
      storeps = !sp;
      log_appends = !la;
      meta_writes = !mw;
      flushes = !fl;
      fences = !fe;
    }
  in
  (events, tally, r)

(* One crash pass: replay, die at event [point], reboot, re-open the
   pool and hand the anchored headers to the oracle's verdict.  A fresh
   share-nothing machine per point, so passes can run on worker domains
   in any order. *)
let crash_pass ~mode ~persist o spec r point =
  let rt, pool, s = boot ~mode ~persist o in
  let tear = if spec.torn then o.tear rt s ~point else fun _ -> None in
  let torn = ref None in
  let unhook =
    hook rt ~crash_at:point (fun i ev -> if i = point then torn := tear ev)
  in
  (try o.replay rt s with Crash_now -> ());
  let kind =
    match unhook () with
    | _, Some kind -> kind
    | _, None ->
        Fmt.invalid_arg "Faultinject: crash point %d past the last event" point
  in
  let violations = ref [] in
  let add msg = violations := msg :: !violations in
  (* Reboot.  crash_and_restart reverts still-buffered words to their
     durable values and clears the instrumentation hooks along with the
     rest of the volatile state. *)
  Runtime.crash_and_restart rt;
  Option.iter (fun after_reboot -> after_reboot ()) !torn;
  let recovery =
    try
      ignore (Runtime.open_pool rt "fi");
      let root = Runtime.get_root rt ~site ~pool in
      let h0 = Runtime.load_ptr rt ~site root ~off:0 in
      let h1 = Runtime.load_ptr rt ~site root ~off:8 in
      o.verdict r rt ~pool ~point ~add h0 h1
    with e ->
      add ("recovery failed: " ^ Printexc.to_string e);
      Txn.Clean
  in
  let op, lost_ops = o.locate r point in
  {
    point;
    op;
    kind;
    recovery;
    lost_ops;
    torn_injected = Option.is_some !torn;
    violations = List.rev !violations;
  }

(* The crash points: every [every_n]th event, or the explicit [at]
   list, cut to the first [max_points] ([Some 0]: the reference pass
   alone). *)
let points_of ~events spec =
  let pts =
    match spec.at with
    | [] ->
        let n = spec.every_n in
        List.init ((events + n - 1) / n) (fun i -> i * n)
    | at ->
        (* An out-of-range index must not silently shrink the sweep to
           zero passes — fail loudly with the valid range instead. *)
        List.iter
          (fun p ->
            if p < 0 || p >= events then
              Fmt.invalid_arg
                "faultinject: crash point %d is out of range (this workload \
                 has events 0..%d)"
                p (events - 1))
          at;
        List.sort_uniq compare at
  in
  match spec.max_points with
  | None -> pts
  | Some m -> List.filteri (fun i _ -> i < m) pts

(* Run a sweep.  [par] maps the per-point thunks (share-nothing,
   order-independent) to their results in submission order — pass
   [Nvml_exec.Pool.run pool] for a parallel sweep; results are
   identical to the sequential default. *)
let sweep ?(par = List.map (fun f -> f ())) ?(mode = Runtime.Hw)
    ?(persist = Persist.Eager) ?(timing = false) spec o =
  (match mode with
  | Runtime.Volatile ->
      invalid_arg "Faultinject: the Volatile mode has nothing to recover"
  | _ -> ());
  at_least_1 "--every-n" spec.every_n;
  (* Crash-point enumeration and recovery verdicts are functional, so
     the reference pass and every crash pass default to the fast core;
     [~timing:true] restores cycle-accurate simulation (same report). *)
  Runtime.with_default_timing timing @@ fun () ->
  let events, tally, r = reference ~mode ~persist o in
  let outcomes =
    par
      (List.map
         (fun p () -> crash_pass ~mode ~persist o spec r p)
         (points_of ~events spec))
  in
  let count f = List.length (List.filter f outcomes) in
  let report =
    {
      workload = o.name;
      persist = Persist.model_name persist;
      ops = o.ops;
      events;
      tally;
      outcomes;
      clean = count (fun o -> o.recovery = Txn.Clean);
      rolled_back =
        count (fun o -> match o.recovery with Txn.Rolled_back _ -> true | _ -> false);
      suffix_lost = count (fun o -> o.lost_ops > 0);
      torn_injected = count (fun o -> o.torn_injected);
      violations =
        List.concat_map
          (fun o -> List.map (fun v -> (o.point, v)) o.violations)
          outcomes;
    }
  in
  if Telemetry.enabled () then begin
    Telemetry.add c_points (List.length report.outcomes);
    Telemetry.add c_clean report.clean;
    Telemetry.add c_rolled_back report.rolled_back;
    Telemetry.add c_suffix_lost report.suffix_lost;
    Telemetry.add c_torn report.torn_injected;
    Telemetry.add c_violations (List.length report.violations)
  end;
  report

(* --- the transactional oracle ------------------------------------------- *)

(* One workload operation: a transaction, then the persistency model's
   op-boundary hook (which drains the epoch every [interval] ops). *)
let run_op rt txn inst i =
  Txn.begin_ txn;
  inst.step i;
  Txn.commit txn;
  Runtime.persist_op_boundary rt

(* The physical (frame, word) spans occupied by the undo log.  Pool
   frames are stable across crashes, so spans computed at boot remain
   valid at the crash point even though the virtual base changes on
   re-open. *)
let log_spans rt txn =
  let va = Xlate.ra2va (Runtime.xlate rt) (Txn.header txn) in
  let bytes = Txn.log_bytes txn in
  let spans = ref [] in
  let off = ref 0 in
  while !off < bytes do
    let pa =
      Mem.translate_pa_exn (Runtime.mem rt) (Int64.add va (Int64.of_int !off))
    in
    let frame = pa lsr Layout.page_shift in
    let w0 = (pa land (Layout.page_size - 1)) lsr 3 in
    let len =
      min (Layout.page_size - (pa land (Layout.page_size - 1))) (bytes - !off)
    in
    spans := (frame, w0, w0 + ((len - 1) lsr 3)) :: !spans;
    off := !off + len
  done;
  !spans

let in_spans spans ~frame ~word_index =
  List.exists
    (fun (f, w0, w1) -> f = frame && word_index >= w0 && word_index <= w1)
    spans

type txn_ref = {
  op_start : int array;  (* event index at which each op began *)
  expected : Snapshot.t array;  (* contents after ops [0, i) *)
  alloc_bytes : int64 array;  (* pool allocated bytes after ops [0, i) *)
  mutated : bool array;  (* op i changed the contents or the allocation *)
  pred_recovery : Txn.recovery array;
      (* oracle: the exact recovery verdict for a crash at event k *)
  pred_boundary : int array;
      (* oracle: the op boundary the recovered state must equal *)
}

(* The reference pass doubles as the contract oracle.  It mirrors the
   *durable* state of the undo log's control words (state at byte 0,
   count at byte 8) by watching their physical locations through the
   Pm_store events — log stores are write-through under every model,
   so the media value IS the durable value.  From that mirror it
   predicts, for every event index, exactly what a crash there must
   recover to:

     durable state = 1, count = n > 0  ->  Rolled_back n, landing on
         the epoch-start boundary [reset_p] (the last boundary whose
         data fully drained);
     durable state = 1, count = 0      ->  Rolled_back 0 (the crash
         split a truncation), landing on the newest durable boundary;
     durable state = 0                 ->  Clean, newest durable
         boundary.

   The prediction for event k is recorded *before* the mirror absorbs
   event k's store: the fi hook fires before the store lands, so a
   crash at k sees only events [0, k).  Under the eager model this
   machinery degenerates to per-operation atomicity (the epoch is one
   operation), making the exact check strictly stronger than the old
   pre/post-snapshot rule. *)
let txn_reference (w : workload) rt ~pool (txn, inst) =
  (* Physical (frame, word) locations of the log's control words; pool
     frames are stable, so these stay valid for the whole run. *)
  let loc off =
    let va =
      Int64.add
        (Xlate.ra2va (Runtime.xlate rt) (Txn.header txn))
        (Int64.of_int off)
    in
    let pa = Mem.translate_pa_exn (Runtime.mem rt) va in
    (pa lsr Layout.page_shift, (pa land (Layout.page_size - 1)) lsr 3)
  in
  let state_loc = loc 0 and count_loc = loc 8 in
  let total = ref 0 in
  (* Oracle mirror: durable log state/count, the newest fully durable
     op boundary ([completed]) and the boundary a whole-epoch rollback
     lands on ([reset_p]). *)
  let d_state = ref 0 and d_count = ref 0 in
  let completed = ref 0 and reset_p = ref 0 in
  let cur = ref 0 in
  let preds = ref [] in
  let observe ev =
    incr total;
    preds :=
      (if !d_state = 1 && !d_count > 0 then (Txn.Rolled_back !d_count, !reset_p)
       else if !d_state = 1 then (Txn.Rolled_back 0, !completed)
       else (Txn.Clean, !completed))
      :: !preds;
    match ev with
    | Fi.Pm_store { frame; word_index; new_value; _ } ->
        if (frame, word_index) = state_loc then
          d_state := Int64.to_int new_value
        else if (frame, word_index) = count_loc then begin
          let n = Int64.to_int new_value in
          (if n = 0 then
             if !d_count > 0 then begin
               (* Truncation of a non-empty log: every entry just
                  became redundant, so the boundary the current
                  operation is closing is durable. *)
               completed := !cur + 1;
               reset_p := !cur + 1
             end
             else reset_p := !completed);
          d_count := n
        end
    | _ -> ()
  in
  let run () =
    let allocated () = Pmop.allocated_bytes (Runtime.pmop rt) ~pool in
    let expected = Array.make (w.ops + 1) (inst.snapshot ()) in
    let alloc_bytes = Array.make (w.ops + 1) (allocated ()) in
    let op_start = Array.make (w.ops + 1) 0 in
    for i = 0 to w.ops - 1 do
      op_start.(i) <- !total;
      cur := i;
      run_op rt txn inst i;
      expected.(i + 1) <- inst.snapshot ();
      alloc_bytes.(i + 1) <- allocated ()
    done;
    op_start.(w.ops) <- !total;
    let preds = Array.of_list (List.rev !preds) in
    {
      op_start;
      expected;
      alloc_bytes;
      mutated =
        Array.init w.ops (fun i ->
            (not (Snapshot.equal expected.(i + 1) expected.(i)))
            || alloc_bytes.(i + 1) <> alloc_bytes.(i));
      pred_recovery = Array.map fst preds;
      pred_boundary = Array.map snd preds;
    }
  in
  (observe, run)

(* The operation event [point] belongs to: the last op started at or
   before it. *)
let op_of_point r point =
  let rec go i = if i = 0 || r.op_start.(i) <= point then i else go (i - 1) in
  go (Array.length r.op_start - 2)

let pp_recovery ppf = function
  | Txn.Clean -> Fmt.pf ppf "clean"
  | Txn.Rolled_back n -> Fmt.pf ppf "rolled back %d" n

let txn_oracle (w : workload) spec =
  {
    name = w.name;
    ops = w.ops;
    setup =
      (fun rt ~pool ~anchor ->
        let inst = w.setup rt ~pool in
        (* Under a relaxed model the undo log covers a whole epoch
           instead of a single operation (a lazy run is one epoch!), so
           the log gets a much larger arena. *)
        let txn =
          if Persist.is_eager (Persist.model (Runtime.persist rt)) then
            Txn.create rt ~pool ()
          else Txn.create rt ~pool ~capacity:16384 ()
        in
        anchor (Txn.header txn) inst.header;
        Txn.instrument txn;
        (txn, inst));
    reference = txn_reference w;
    replay =
      (fun rt (txn, inst) ->
        for i = 0 to w.ops - 1 do
          run_op rt txn inst i
        done);
    tear =
      (fun rt (txn, _) ~point ->
        let phys = Mem.phys (Runtime.mem rt) in
        let spans = log_spans rt txn in
        let rng = Random.State.make [| 0x5eed; spec.seed; point |] in
        function
        | Fi.Pm_store { frame; word_index; old_value; new_value }
          when not (in_spans spans ~frame ~word_index) ->
            let keep_old_bytes = 1 + Random.State.int rng 254 in
            Physmem.poke phys ~frame ~word_index
              (Fi.torn_word ~keep_old_bytes ~old_value ~new_value);
            Some ignore
        | Fi.Flush_line { frame; line } -> (
            (* A tear at a [Flush_line] targets a still-buffered word:
               the flush was interrupted mid-line, so the media keeps a
               byte mix of the word's durable and buffered values.  The
               poke must wait until after [Persist.crash] has reverted
               the buffer (an immediate poke would be overwritten by the
               revert), so it runs after the reboot. *)
            match
              List.filter
                (fun (w, _) -> not (in_spans spans ~frame ~word_index:w))
                (Persist.buffered_in_line (Runtime.persist rt) ~frame ~line)
            with
            | [] -> None
            | words ->
                let w, durable =
                  List.nth words (Random.State.int rng (List.length words))
                in
                let keep_old_bytes = 1 + Random.State.int rng 254 in
                let torn =
                  Fi.torn_word ~keep_old_bytes ~old_value:durable
                    ~new_value:(Physmem.peek phys ~frame ~word_index:w)
                in
                Some (fun () -> Physmem.poke phys ~frame ~word_index:w torn))
        | _ -> None);
    (* Committed ops in [boundary, op) whose effects died with the
       epoch.  Read-only ops in the window are not counted: they left
       nothing behind to lose (which is also why the oracle's
       log-derived boundary can trail [op] under eager without any
       effect actually lost). *)
    locate =
      (fun r point ->
        let op = op_of_point r point in
        let lost = ref 0 in
        for i = r.pred_boundary.(point) to op - 1 do
          if r.mutated.(i) then incr lost
        done;
        (op, !lost));
    verdict =
      (fun r rt ~pool ~point ~add log hdr ->
        let txn = Txn.attach rt log in
        let recovery =
          if spec.break_recovery then Txn.Clean else Txn.recover txn
        in
        (* The oracle's contract is exact in both directions: the
           observed recovery verdict must be the predicted one, and the
           recovered state must equal the predicted boundary's snapshot
           — losing more than predicted and retaining more than
           predicted are both hard failures. *)
        let pred = r.pred_recovery.(point) in
        let boundary = r.pred_boundary.(point) in
        if recovery <> pred then
          add
            (Fmt.str "contract: recovery %a, oracle predicted %a" pp_recovery
               recovery pp_recovery pred);
        let want = r.expected.(boundary) in
        (try
           let inst' = w.reattach rt hdr in
           (try inst'.check ()
            with e -> add ("invariant check: " ^ Printexc.to_string e));
           (try
              let got = inst'.snapshot () in
              if not (Snapshot.equal got want) then
                add
                  (Fmt.str "contract: state differs from predicted boundary %d%a"
                     boundary
                     (Fmt.option (fun ppf d -> Fmt.pf ppf ": %s" d))
                     (Snapshot.diff_summary got want))
            with e -> add ("contents walk dangled: " ^ Printexc.to_string e))
         with e -> add ("reattach failed: " ^ Printexc.to_string e));
        (try
           ignore (Pmop.check_pool_invariants (Runtime.pmop rt) ~pool);
           let got = Pmop.allocated_bytes (Runtime.pmop rt) ~pool in
           let want = r.alloc_bytes.(boundary) in
           if got <> want then
             add
               (Fmt.str
                  "contract: freelist has %Ld bytes allocated, predicted \
                   boundary %d has %Ld"
                  got boundary want)
         with e -> add ("freelist: " ^ Printexc.to_string e));
        recovery);
  }

let run ?par ?mode ?persist ?(spec = default_spec) ?timing (w : workload) =
  at_least_1 "--ops" w.ops;
  sweep ?par ?mode ?persist ?timing spec (txn_oracle w spec)

(* --- the durable-linearizability oracle --------------------------------- *)

(* Crash-at-any-event verification for the durably-linearizable
   concurrent structures on the multi-core machine.  No transactions
   here: the structures promise crash-resilience by construction
   (single-word durability points, pre-sized arenas), and the oracle is
   Khyzha & Lahav's crash-resilient-object criterion — after a crash at
   any enumerated persistence event of any core, the recovered state
   must sit between the completed and the invoked operation sets:

     - recovered counter value within [sum completed, sum invoked];
     - per core, the recovered list keys are exactly a prefix of that
       core's insertion order, with length within
       [completed_c, invoked_c].

   The reference pass runs the seeded interleaving once, recording at
   every persistence event which operations each core had invoked and
   completed; each crash pass replays the identical schedule (same
   scheduler seed, share-nothing machine) and kills the power at one
   event.  There is no log to roll back, so every point reports
   [Clean]; its [lost_ops] are the completed counter increments the
   predicted durable counter no longer holds. *)

module Conc_workload = Nvml_structures.Conc_workload
module Conc_counter = Nvml_structures.Conc_counter
module Conc_list = Nvml_structures.Conc_list

(* Per-core invoked/completed counts for both structures — the marker
   state snapshotted at every persistence event. *)
type conc_marks = {
  ctr_invoked : int array;
  ctr_done : int array;
  list_invoked : int array;
  list_done : int array;
}

let copy_marks m =
  {
    ctr_invoked = Array.copy m.ctr_invoked;
    ctr_done = Array.copy m.ctr_done;
    list_invoked = Array.copy m.list_invoked;
    list_done = Array.copy m.list_done;
  }

let mark_of m ~core = function
  | Conc_workload.Ctr_invoke -> m.ctr_invoked.(core) <- m.ctr_invoked.(core) + 1
  | Conc_workload.Ctr_done -> m.ctr_done.(core) <- m.ctr_done.(core) + 1
  | Conc_workload.List_invoke ->
      m.list_invoked.(core) <- m.list_invoked.(core) + 1
  | Conc_workload.List_done -> m.list_done.(core) <- m.list_done.(core) + 1

type conc_ref = {
  marks : conc_marks array;  (* invoked/completed state per event *)
  pred_counter : int64 array;  (* oracle: exact recovered counter value *)
  pred_keys : int64 list array;  (* oracle: exact recovered chain, newest first *)
}

(* A reader that resolves byte offsets within a structure's header
   object to the *durable* value of that word — what the media would
   retain on a crash right now.  Valid only while the mapping is live
   (the reference pass). *)
let durable_reader rt header =
  let base = Xlate.ra2va (Runtime.xlate rt) header in
  let p = Runtime.persist rt in
  let mem = Runtime.mem rt in
  fun off ->
    let pa = Mem.translate_pa_exn mem (Int64.add base (Int64.of_int off)) in
    Persist.durable_value p
      ~frame:(pa lsr Layout.page_shift)
      ~word_index:((pa land (Layout.page_size - 1)) lsr 3)

let sum = Array.fold_left ( + ) 0

(* The hook fires *before* the event's effect, so both the
   invoked/completed snapshot and the durable-value walk describe the
   exact state a crash at that event would expose.  The durable walk
   is the contract oracle: under a relaxed model it predicts the
   precise post-crash counter value and chain — including mid-drain
   states where a drained head pointer reaches not-yet-drained (still
   zero) slots. *)
let conc_reference ~cores rt ~pool:_ s =
  let m =
    {
      ctr_invoked = Array.make cores 0;
      ctr_done = Array.make cores 0;
      list_invoked = Array.make cores 0;
      list_done = Array.make cores 0;
    }
  in
  let list_hdr = Conc_list.header s.Conc_workload.list in
  let list_cap = Conc_list.capacity s.Conc_workload.list in
  let read_ctr = durable_reader rt (Conc_counter.header s.Conc_workload.counter) in
  let read_list = durable_reader rt list_hdr in
  let snaps = ref [] and preds = ref [] in
  let observe _ =
    snaps := copy_marks m :: !snaps;
    preds :=
      ( Conc_counter.value_via ~cells:cores read_ctr,
        Conc_list.keys_via ~capacity:list_cap ~header:list_hdr read_list )
      :: !preds
  in
  let run () =
    Conc_workload.run ~mark:(fun ~core ~op:_ phase -> mark_of m ~core phase) s;
    let preds = Array.of_list (List.rev !preds) in
    {
      marks = Array.of_list (List.rev !snaps);
      pred_counter = Array.map fst preds;
      pred_keys = Array.map snd preds;
    }
  in
  (observe, run)

let conc_oracle ~cores ~ops_per_core ~seed =
  {
    name = Fmt.str "conc-%dcore" cores;
    ops = cores * ops_per_core;
    setup =
      (fun rt ~pool ~anchor ->
        let s =
          Conc_workload.setup ~sched_seed:seed ~cores ~ops_per_core rt ~pool
        in
        anchor
          (Conc_counter.header s.Conc_workload.counter)
          (Conc_list.header s.Conc_workload.list);
        s);
    reference = conc_reference ~cores;
    replay = (fun _ s -> Conc_workload.run s);
    tear = (fun _ _ ~point:_ _ -> None);
    locate =
      (fun r point ->
        let m = r.marks.(point) in
        ( sum m.list_done,
          max 0 (sum m.ctr_done - Int64.to_int r.pred_counter.(point)) ));
    verdict =
      (fun r rt ~pool:_ ~point ~add ctr_hdr list_hdr ->
        let ctr = Conc_counter.attach rt ctr_hdr in
        let lst = Conc_list.attach rt list_hdr in
        if Conc_counter.cells ctr <> cores then
          add
            (Fmt.str "counter header: %d cells, expected %d"
               (Conc_counter.cells ctr) cores);
        (* Contract oracle: the recovered state must be byte-exact what
           the durable-value walk at this event predicted — under every
           model.  Retaining more than predicted is as much a failure
           as losing more. *)
        let v = Conc_counter.recovered_value rt ctr in
        if v <> r.pred_counter.(point) then
          add
            (Fmt.str "contract: counter recovered %Ld, oracle predicted %Ld" v
               r.pred_counter.(point));
        (match Conc_list.recovered_keys rt lst with
        | exception e -> add ("list walk: " ^ Printexc.to_string e)
        | keys ->
            if keys <> r.pred_keys.(point) then
              add
                (Fmt.str
                   "contract: list recovered [%a], oracle predicted [%a]"
                   Fmt.(list ~sep:semi int64)
                   keys
                   Fmt.(list ~sep:semi int64)
                   r.pred_keys.(point));
            (* The durable-linearizability bounds additionally hold
               under the eager model (under a relaxed model a drained
               head may legitimately reach not-yet-drained slots, so
               the chain is checked only against the oracle's exact
               prediction). *)
            if Persist.is_eager (Persist.model (Runtime.persist rt)) then begin
              let snap = r.marks.(point) in
              let v = Int64.to_int v in
              let lo = sum snap.ctr_done and hi = sum snap.ctr_invoked in
              if v < lo || v > hi then
                add
                  (Fmt.str
                     "counter: recovered %d, outside [completed %d, invoked \
                      %d]"
                     v lo hi);
              let per_core = Array.make cores [] in
              List.iter
                (fun k ->
                  let c, j = Conc_workload.decode_key k in
                  if c < 0 || c >= cores || j < 0 || j >= ops_per_core then
                    add (Fmt.str "list: foreign key %Lx" k)
                  else per_core.(c) <- j :: per_core.(c))
                keys;
              for c = 0 to cores - 1 do
                let js = List.sort compare per_core.(c) in
                let n = List.length js in
                if js <> List.init n Fun.id then
                  add
                    (Fmt.str "list: core %d keys are not a prefix of its order"
                       c)
                else if n < snap.list_done.(c) || n > snap.list_invoked.(c)
                then
                  add
                    (Fmt.str
                       "list: core %d recovered %d inserts, outside \
                        [completed %d, invoked %d]"
                       c n snap.list_done.(c) snap.list_invoked.(c))
              done
            end);
        Txn.Clean);
  }

let run_conc ~cores ~ops_per_core ?par ?mode ?persist ?(spec = default_spec)
    ?timing () =
  at_least_1 "--cores" cores;
  at_least_1 "--ops" ops_per_core;
  (* The concurrent structures keep no undo log that could heal a torn
     word, and recover by construction with no step to skip. *)
  if spec.torn then
    invalid_arg
      "faultinject: --torn does not apply to the conc workload (it has no \
       undo log to heal a torn word)";
  if spec.break_recovery then
    invalid_arg
      "faultinject: --break-recovery does not apply to the conc workload (it \
       has no recovery step to skip)";
  sweep ?par ?mode ?persist ?timing spec
    (conc_oracle ~cores ~ops_per_core ~seed:spec.seed)

(* --- rendering ---------------------------------------------------------- *)

let pp_tally ppf t =
  Fmt.pf ppf "%d pm_store, %d storep, %d log_append, %d alloc_meta"
    t.pm_stores t.storeps t.log_appends t.meta_writes;
  (* Drain µ-events exist only under a relaxed model; eager output is
     pinned byte-identical to the pre-engine renderer. *)
  if t.flushes > 0 || t.fences > 0 then
    Fmt.pf ppf ", %d flush, %d fence" t.flushes t.fences

let pp_report ppf r =
  Fmt.pf ppf "@[<v>";
  Fmt.pf ppf "workload %s: %d ops, %d events (%a)@," r.workload r.ops r.events
    pp_tally r.tally;
  if r.persist <> "eager" then
    Fmt.pf ppf "  persistency model %s: contract oracle armed@," r.persist;
  Fmt.pf ppf "  %d crash points: %d recovered clean, %d rolled back"
    (List.length r.outcomes) r.clean r.rolled_back;
  if r.suffix_lost > 0 then
    Fmt.pf ppf ", %d lost a committed suffix (as predicted)" r.suffix_lost;
  if r.torn_injected > 0 then Fmt.pf ppf ", %d torn words injected" r.torn_injected;
  Fmt.pf ppf "@,";
  (match r.violations with
  | [] -> Fmt.pf ppf "  no violations"
  | vs ->
      Fmt.pf ppf "  %d VIOLATIONS:" (List.length vs);
      List.iter
        (fun (o : outcome) ->
          if o.violations <> [] then
            Fmt.pf ppf "@,    point %d (op %d, at %s, %a):%a" o.point o.op
              o.kind pp_recovery o.recovery
              (Fmt.list ~sep:Fmt.nop (fun ppf v -> Fmt.pf ppf "@,      %s" v))
              o.violations)
        r.outcomes);
  Fmt.pf ppf "@]"
