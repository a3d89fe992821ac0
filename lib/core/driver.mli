(** The IMPACT synthesis driver (Figure 7).

    Pipeline: behavioral simulation (traces + profile) → parallel initial
    architecture scheduled with the designer clock → iterative improvement
    under the laxity-derived ENC budget → Vdd scaling of the remaining
    slack.  [figure13] reproduces the paper's evaluation: for each laxity
    factor an area-optimized design (A-Power: the same design Vdd-scaled)
    and a power-optimized design (I-Power, I-Area), normalized to the
    laxity-1.0 area-optimized design at 5 V. *)

type options = {
  clock_ns : float;
  style : Impact_sched.Scheduler.style;
  depth : int;  (** variable-depth sequence length *)
  max_candidates : int;  (** candidate sample per step *)
  seed : int;
  enable_restructure : bool;  (** ablation A1 *)
  max_iterations : int;
  jobs : int;
      (** evaluation concurrency; [1] is fully sequential, [0] auto-detects
          via {!Impact_util.Parallel.num_domains} (which honours the
          [IMPACT_JOBS] environment variable) *)
  probes : int;
      (** speculative depth probes per search iteration
          ({!Search.default_num_probes} by default; [1] selects the flat
          single-trajectory search).  Part of the search definition — it
          changes the trajectory — and deliberately independent of [jobs]:
          any probe count gives bit-identical results at any job count *)
  eval_cache : bool;
      (** reuse candidate builds via the signature cache.  With a store it
          also carries the region-fragment cache backed by the store's
          ["frag"] tier; storeless runs have no fragment cache.  Not
          trajectory-neutral (a cache hit returns a relabeled-isomorphic
          binding), so [false] is part of the store key *)
  delta_reprice : bool;
      (** let schedule-keeping moves re-price only their resource footprint
          against the predecessor's energy ledger (bit-identical totals;
          [false] forces full re-estimation) *)
  sweep_parallel : bool;
      (** fan {!figure13}'s laxity points out over the worker pool (coarse
          grain, bit-identical to the sequential sweep); inside each point
          only speculative probes fan out *)
  range_power : bool;
      (** price width-scaled switching terms at the
          {!Impact_cdfg.Ranges} effective widths instead of the declared
          ones.  Off by default — it changes estimates, and therefore
          search trajectories, so it participates in the store
          fingerprint (only when enabled; disabled keys are unchanged) *)
}

val default_options : options

val options_fingerprint : options -> string
(** The trajectory-defining option fields rendered into the store key.
    Options that add themselves only when they differ from the default
    ([range_power = true], [eval_cache = false]) leave default fingerprints
    byte-identical across versions. *)

val resolved_jobs : options -> int
(** The effective concurrency ([jobs], or the auto-detected count when
    [jobs = 0]). *)

type design = {
  d_solution : Solution.t;
  d_objective : Solution.objective;
  d_laxity : float;
  d_enc_min : float;
  d_enc_budget : float;
  d_search : Search.stats;
  d_env : Solution.env;
}

val build_env :
  ?options:options ->
  ?store:Impact_store.Store.t ->
  Impact_cdfg.Graph.program ->
  workload:(string * int) list list ->
  objective:Solution.objective ->
  laxity:float ->
  Solution.env * float
(** Simulates the workload, builds the estimation context and prices the
    ENC budget; returns the environment and the minimum ENC.  [synthesize]
    is [build_env] plus the search — exposing the environment alone lets
    tools (the CLI's [lint]) evaluate and verify solutions without
    searching.

    With a [store], the front-end tiers serve and feed it: the simulation
    run comes from the ["sim"] namespace when the (program, workload) pair
    is known (skipping {!Impact_sim.Sim.simulate} entirely — persisted on
    a miss with its measured recompute cost), and the estimation context
    is pre-seeded from the ["traces"] namespace so the search starts with
    a hot unit/value switching memo.  Both paths are bit-identical to a
    cold build; [IMPACT_STORE_CHECK=1] recomputes and asserts it. *)

val restructure_all : design -> design
(** Applies the Huffman restructuring move to every restructurable network
    of the design, keeping the schedule and binding, so the comparison
    isolates the tree shapes (ablation A1). *)

(** {1 Persistent result store}

    With a [store], {!synthesize} and {!figure13} are consulted-before-search:
    the request's canonical key (program, workload, library characterisation,
    trajectory-defining options, target) is looked up, a hit replays the
    persisted decision through the normal evaluation path with every recorded
    metric cross-checked — any disagreement falls back to a cold search that
    overwrites the entry — and a miss persists the cold result.  Designs and
    sweeps share the ["design"] namespace (their keys separate the request
    kinds); the simulation run takes the same get-or-compute path in the
    ["sim"] namespace.  The persisted form of an answer is built only on a
    store miss, so storeless calls never pay for it.  The module library
    has no tier of its own: its digest is part of every design and sweep
    key.  Warm answers are bit-identical to cold ones; setting
    [IMPACT_STORE_CHECK=1] makes every warm answer recompute cold and
    assert that identity, raising [Failure] on a divergence (never read as
    a miss). *)

val design_key :
  options:options ->
  Impact_cdfg.Graph.program ->
  workload:(string * int) list list ->
  objective:Solution.objective ->
  laxity:float ->
  string
(** The content key {!synthesize} consults for this request. *)

val sweep_key :
  options:options ->
  Impact_cdfg.Graph.program ->
  workload:(string * int) list list ->
  laxities:float list ->
  string
(** The content key {!figure13} consults for this request. *)

val sim_key :
  Impact_cdfg.Graph.program -> workload:(string * int) list list -> string
(** The ["sim"]-namespace key of the (program, workload) simulation run —
    independent of objective, laxity and options by construction. *)

val traces_key :
  Impact_cdfg.Graph.program -> workload:(string * int) list list -> string
(** The ["traces"]-namespace key of the (program, workload) switching-memo
    snapshot. *)

val synthesize :
  ?options:options ->
  ?pool:Impact_util.Parallel.pool ->
  ?cache:Solution.cache ->
  ?store:Impact_store.Store.t ->
  Impact_cdfg.Graph.program ->
  workload:(string * int) list list ->
  objective:Solution.objective ->
  laxity:float ->
  unit ->
  design
(** A supplied [pool] or [cache] overrides what [options.jobs] /
    [options.eval_cache] would create (sharing them across calls is only
    sound when the program, workload, clock and style agree).  With
    [options.probes = 1] the search has nothing to fan out, so no pool is
    created whatever [options.jobs] says. *)

val measure :
  design ->
  Impact_cdfg.Graph.program ->
  workload:(string * int) list list ->
  ?vdd:float ->
  unit ->
  Impact_power.Measure.t
(** Detailed measurement at the design's scaled supply (or an explicit
    one). *)

type sweep_point = {
  sp_laxity : float;
  sp_a_power : float;  (** area-optimized, Vdd-scaled, normalized *)
  sp_i_power : float;  (** power-optimized, normalized *)
  sp_i_area : float;  (** power-optimized area, normalized *)
  sp_a_vdd : float;
  sp_i_vdd : float;
  sp_area_design : design;
  sp_power_design : design;
}

type sweep = {
  sw_base_power : float;  (** absolute, laxity-1 area-opt at 5 V *)
  sw_base_area : float;
  sw_points : sweep_point list;
}

val figure13 :
  ?options:options ->
  ?pool:Impact_util.Parallel.pool ->
  ?cache:Solution.cache ->
  ?store:Impact_store.Store.t ->
  Impact_cdfg.Graph.program ->
  workload:(string * int) list list ->
  laxities:float list ->
  sweep
(** The whole sweep shares one behavioral simulation, estimation context,
    signature cache and worker pool: each point re-prices cached candidate
    builds against its own ENC budget and objective.  A warm [store] hit
    skips both the searches and the power measurements: the persisted
    designs are rebuilt and cross-checked, the measured ratios restored. *)
