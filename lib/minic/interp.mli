(** The mini-C interpreter.  Programs execute against the runtime's
    pointer API, so one source runs in every mode: Volatile gives the
    reference behaviour; Sw/Hw give user-transparent persistent
    references with their cost models.  Locals live in a simulated DRAM
    stack; the heap region is a parameter (DRAM for native runs, a pool
    for the libvmmalloc-style persist-everything runs of Sec. VII-B).

    A check [plan] from the compiler pass marks expression nodes whose
    pointer properties were statically resolved; those sites are created
    static and the SW mode emits no dynamic check there. *)

module Runtime = Nvml_runtime.Runtime

exception Runtime_error of string

type outcome = { result : int64; output : int64 list }

val run :
  Runtime.t ->
  ?plan:(int -> bool) ->
  heap:Runtime.region ->
  Ast.program ->
  args:int64 list ->
  outcome
(** Execute [main].  [plan id] answers "statically resolved?" per
    expression node id (defaults to all-dynamic).
    @raise Runtime_error on dynamic errors (unbound names, division by
    zero, stack overflow, calls to unknown functions). *)

type fresh = {
  outputs : int64 list array;  (** per core *)
  costs : Nvml_arch.Cpu.snapshot array;
      (** per core, from the start of the run to its final persist sync *)
  cluster : Nvml_runtime.Cluster.t;
}

val run_fresh :
  ?plan:(int -> bool) ->
  ?timing:bool ->
  ?persist:Nvml_runtime.Persist.model ->
  ?cores:int ->
  mode:Runtime.mode ->
  persistent:bool ->
  Ast.program ->
  fresh
(** Execute [main] on a fresh machine of [cores] (default 1) cores, one
    replica per core, each with its own heap: a 4 MiB pool when
    [persistent] and [mode] is not [Volatile], else DRAM.  One core is
    a plain call.  A relaxed [persist] model is synced after the run.
    @raise Runtime_error as {!run}. *)
