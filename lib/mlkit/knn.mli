(** The KNN case study (Section VII-E): exact k-nearest-neighbours over
    four matrices — input samples, an internal distance matrix, and two
    output matrices (neighbour indices and distances) — each placeable
    in DRAM or NVM. *)

module Runtime = Nvml_runtime.Runtime

type placement = {
  input : Runtime.region;
  internal : Runtime.region;
  neighbors : Runtime.region;
  distances : Runtime.region;
}

val all_dram : placement

val paper_placement : pool:int -> placement
(** The paper's configuration: everything persistent except the input. *)

val all_placements : pool:int -> placement list
(** All 16 DRAM/NVM combinations — the reason an explicit-pointer port
    would need 16 code versions. *)

type t = {
  input : Matrix.t;
  internal : Matrix.t;
  neighbors : Matrix.t;
  distances : Matrix.t;
  k : int;
}

val create : Runtime.t -> placement -> n:int -> dims:int -> k:int -> t
(** @raise Invalid_argument unless [1 <= k <= n - 1]. *)

val load_input : t -> float array array -> unit

val run : Runtime.t -> t -> unit
(** All-pairs distances, then the k nearest per row (excluding self)
    into the output matrices. *)

val accuracy : t -> int array -> float
(** Leave-one-out majority-vote accuracy against true labels. *)

val case_study : ?k:int -> Runtime.mode -> float * Nvml_arch.Cpu.snapshot
(** The Sec. VII-E setup on a fresh machine: the iris dataset, the
    paper's placement (all DRAM in [Volatile] mode) and [k] (default 3)
    neighbours.  Returns the accuracy and the cost of {!run} alone.
    @raise Invalid_argument as {!create}. *)
