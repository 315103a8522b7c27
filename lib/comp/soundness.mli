(** Section VII-B's soundness check: each corpus program, run on a fresh
    machine per configuration, must print what it prints natively
    (volatile mode, DRAM heap). *)

type config = {
  mode : Nvml_runtime.Runtime.mode;
  persistent : bool;  (** heap in a pool rather than DRAM *)
  inference : bool;  (** checks elided where {!Inference} resolved them *)
}

val configs : config list
(** SW and HW on a DRAM and on a persistent heap, then SW with the
    inference plan on a persistent heap. *)

val config_name : config -> string
(** ["SW/DRAM"], ..., ["SW+inference"]. *)

val run :
  ?par:((unit -> (config * bool) list) list -> (config * bool) list list) ->
  unit ->
  (string * (config * bool) list) list
(** One row per corpus program: whether each of {!configs} matched the
    native output.  [par] runs the per-program tasks (default: in
    order, inline). *)

val mismatches : (string * (config * bool) list) list -> int
