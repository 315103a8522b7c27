(** Systematic crash-point fault injection for the persistence stack.

    One engine runs every sweep.  A reference pass counts every
    persistence-relevant event ({!Nvml_simmem.Fi.event}) of a workload
    while an oracle watches it; then each chosen event index is
    replayed on a fresh machine that loses power exactly there (the
    interrupted store never lands, the media freezes, DRAM and all
    mappings vanish).  After reboot and pool re-open the oracle
    recovers and checks.  Two oracles plug into the engine.

    The transactional oracle ({!run}) snapshots the structure at every
    operation boundary; after [Txn.recover] it validates recovery
    status, structural invariants, pointer reachability, atomicity
    against the pre/post-transaction snapshots, and
    persistent-freelist consistency.

    Operations run under [Txn.instrument]: plain [Runtime.store_*]
    calls in legacy structure code are undo-logged transparently, so
    the sweep exercises exactly the user-transparent persistence story
    the paper argues for.

    Under a relaxed persistency model ([?persist]) the reference pass
    doubles as a {e contract oracle}: a pure pass over the µ-event
    schedule that predicts, for every crash point, the exact recovery
    verdict and the exact operation boundary the recovered state must
    equal (the legitimately lost op suffix).  Crash passes then check
    the observation against the prediction in both directions — losing
    more than predicted and retaining more than predicted are both
    hard violations.

    The durable-linearizability oracle ({!run_conc}) checks the
    concurrent structures of the multi-core machine. *)

module Runtime = Nvml_runtime.Runtime
module Persist = Nvml_runtime.Persist
module Txn = Nvml_runtime.Txn
module Snapshot = Nvml_structures.Snapshot

(** {1 Workloads} *)

type instance = {
  header : Nvml_core.Ptr.t;
  step : int -> unit;  (** run operation [i] (wrapped in a txn by the engine) *)
  snapshot : unit -> Snapshot.t;
  check : unit -> unit;  (** raise on broken structural invariants *)
}

type workload = {
  name : string;
  ops : int;
  setup : Runtime.t -> pool:int -> instance;
  reattach : Runtime.t -> Nvml_core.Ptr.t -> instance;
}

val counter_workload : ?cells:int -> ?ops:int -> unit -> workload
(** Flat persistent counter array; each op is a transaction of three
    scattered stores.  The smallest interesting sweep target. *)

val kv_workload :
  ?structure:string -> ?records:int -> ?ops:int -> ?seed:int -> unit -> workload
(** The KV-harness shape: populate a Table III structure ([structure]
    as in [Registry.find_map]), then replay a YCSB stream with every
    seventh op replaced by a remove (so pfree is exercised too). *)

(** {1 Sweep specification} *)

type spec = {
  every_n : int;
      (** crash at events [0, n, 2n, ...] when [at] is empty; at least 1 *)
  at : int list;
      (** explicit event indices; an out-of-range index raises
          [Invalid_argument] naming the valid range rather than
          silently running zero passes *)
  torn : bool;
      (** additionally tear the interrupted word (seeded byte mix of
          old/new) — except undo-log words, which the log protocol's
          8-byte-atomicity assumption covers *)
  seed : int;  (** drives the torn byte masks, and the conc schedule *)
  max_points : int option;
      (** bound the sweep (for smoke runs); [Some 0] runs the reference
          pass alone *)
  break_recovery : bool;
      (** checker self-test: skip [Txn.recover] after the crash and
          let the checker prove it notices *)
}

val default_spec : spec
(** Every event, no tearing, seed 1, unbounded, recovery intact. *)

(** {1 Results} *)

type tally = {
  pm_stores : int;
  storeps : int;
  log_appends : int;
  meta_writes : int;
  flushes : int;  (** drain [Flush_line] µ-events (relaxed models only) *)
  fences : int;  (** drain [Fence] µ-events (relaxed models only) *)
}

type outcome = {
  point : int;
  op : int;
      (** the operation the event belonged to; for {!run_conc}, the
          number of operations all cores had completed *)
  kind : string;
  recovery : Txn.recovery;  (** always [Clean] for {!run_conc}: no log *)
  lost_ops : int;
      (** committed {e mutating} operations whose effects the
          persistency model legitimately let die at this point —
          read-only ops leave nothing to lose and are not counted; for
          {!run_conc}, the completed counter increments the predicted
          durable counter no longer holds (always 0 under eager) *)
  torn_injected : bool;
  violations : string list;
}

type report = {
  workload : string;
  persist : string;  (** {!Persist.model_name} of the swept model *)
  ops : int;
  events : int;
  tally : tally;
  outcomes : outcome list;  (** in event-index order *)
  clean : int;
  rolled_back : int;
  suffix_lost : int;  (** points at which >= 1 committed op was lost *)
  torn_injected : int;
  violations : (int * string) list;
}

val run :
  ?par:((unit -> outcome) list -> outcome list) ->
  ?mode:Runtime.mode ->
  ?persist:Persist.model ->
  ?spec:spec ->
  ?timing:bool ->
  workload ->
  report
(** Run the sweep.  Each crash pass builds a share-nothing machine, so
    [par] (e.g. [Nvml_exec.Pool.run pool]) may run them on worker
    domains: results are in submission order and identical to the
    sequential default.  [mode] defaults to [Hw]; [persist] to
    [Persist.Eager] (per-operation atomicity, the historical checker,
    now expressed as the oracle's degenerate case).  [timing] defaults
    to [false]: crash-point enumeration and recovery verdicts are
    functional, so the sweep uses fast functional simulation; pass
    [true] for the cycle-accurate core (identical report, slower).
    @raise Invalid_argument for [Volatile] mode, an out-of-range
    [spec.at] index, [spec.every_n < 1] or a workload of fewer than one
    operation. *)

val run_conc :
  cores:int ->
  ops_per_core:int ->
  ?par:((unit -> outcome) list -> outcome list) ->
  ?mode:Runtime.mode ->
  ?persist:Persist.model ->
  ?spec:spec ->
  ?timing:bool ->
  unit ->
  report
(** The same sweep over the durably-linearizable concurrent structures
    ([Conc_counter], [Conc_list]) on the [cores]-core machine, each
    core running [ops_per_core] operations of the schedule
    [spec.seed] drives.  The oracle is the crash-resilient-object
    criterion: the recovered counter and chain must equal the
    durable-value walk's prediction at every point, and under [Eager]
    the state must also lie between the completed and the invoked
    operation sets (counter value within [sum completed, sum invoked];
    per-core list contents an insertion-order prefix of length within
    the same bounds).
    @raise Invalid_argument as {!run}, for [cores < 1] or
    [ops_per_core < 1], and for [spec.torn] or [spec.break_recovery]:
    there is no undo log to heal a tear and no recovery step to skip. *)

val pp_tally : tally Fmt.t

val pp_report : report Fmt.t
(** Multi-line summary inside a vertical box: counts per event kind,
    recovery totals, and every violation with its crash point. *)
