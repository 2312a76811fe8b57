(** ApproxMC — the (ε, δ) approximate model counter of Chakraborty,
    Meel, Vardi (CP 2013), re-implemented from the published
    pseudocode. UniGen invokes it (line 9 of Algorithm 1) with
    tolerance 0.8 and confidence 0.8 to locate the candidate range of
    hash sizes.

    Guarantee: Pr[ |R_F|/(1+ε) ≤ estimate ≤ (1+ε)·|R_F| ] ≥ 1 − δ.

    Counting is performed over the formula's sampling set (the
    projection); when the sampling set is an independent support this
    equals the full model count, which is how UniGen uses it. *)

type result = {
  estimate : float;  (** the median-of-iterations estimate of |R_F| *)
  log2_estimate : float;
  exact : bool;
      (** [true] when the formula was small enough that the count is
          exact (enumeration finished below the pivot). *)
  core_iterations : int;  (** successful ApproxMCCore runs *)
  failed_iterations : int;
  solver_stats : Sat.Solver.stats;
      (** aggregate CDCL statistics over every BSAT call of the count *)
  reuse_hits : int;
      (** BSAT calls served by a warm solver session (0 on the fresh
          path and in the exact easy case) *)
}

type error = Unsat | Timed_out

val pivot_of_epsilon : float -> int
(** ⌈ 2·e^(3/2)·(1 + 1/ε)² ⌉ — the cell-size threshold of the CP 2013
    analysis. *)

val iterations_of_delta : float -> int
(** ⌈ 35·log2(3/δ) ⌉ — the number of median iterations. *)

val count :
  ?deadline:float ->
  ?leapfrog:bool ->
  ?incremental:bool ->
  ?gauss:bool ->
  ?iterations:int ->
  ?jobs:int ->
  ?pool:Parallel.Domain_pool.t ->
  rng:Rng.t ->
  epsilon:float ->
  delta:float ->
  Cnf.Formula.t ->
  (result, error) Result.t
(** [incremental] (default [true]) runs each ApproxMCCore iteration on
    a persistent solver session: one solver per iteration, reused
    across all hash sizes [i] with only the XOR layer swapped. The
    estimate is identical to the fresh-solver path ([~incremental:
    false], the differential reference) — hash draws and cell-size
    decisions are unchanged — but base-formula clauses are learnt once
    per iteration instead of once per hash size.

    [gauss] (default [true]) selects the XOR engine of every BSAT call:
    in-search Gauss-Jordan elimination, or — with [~gauss:false] — a
    static RREF followed by parity 2-watch propagation (the
    differential reference engine). The estimate is identical either
    way.

    [leapfrog] (default [false]) starts each core iteration's search
    for the hash size near the previous success instead of from 1 —
    the CP 2013 heuristic that the UniGen paper explicitly disables
    because it voids the guarantees. It exists for the ablation bench.
    [iterations] overrides {!iterations_of_delta} (used by benches to
    trade confidence for time; the default is the faithful value).

    Draw order: one master seed is drawn from [rng] and iteration [i]
    runs on the private stream [(master, i)] (see {!Rng.of_stream});
    the median is taken over the index-ordered results, so the estimate
    is a pure function of [rng]'s state. [jobs]/[pool] choose only where
    the iterations run ([jobs] fresh workers, or a caller-owned pool;
    serial when both are omitted) — the estimate is identical for every
    value. [leapfrog] walks the same streams serially (each iteration's
    start depends on the previous one).
    @raise Invalid_argument when [jobs < 1]. *)
