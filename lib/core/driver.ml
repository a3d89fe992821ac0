module Graph = Impact_cdfg.Graph
module Ranges = Impact_cdfg.Ranges
module Rangecheck = Impact_sim.Rangecheck
module Scheduler = Impact_sched.Scheduler
module Enc = Impact_sched.Enc
module Stg = Impact_sched.Stg
module Sim = Impact_sim.Sim
module Module_library = Impact_modlib.Module_library
module Binding = Impact_rtl.Binding
module Estimate = Impact_power.Estimate
module Measure = Impact_power.Measure
module Breakdown = Impact_power.Breakdown
module Rng = Impact_util.Rng
module Parallel = Impact_util.Parallel
module Store = Impact_store.Store

type options = {
  clock_ns : float;
  style : Scheduler.style;
  depth : int;
  max_candidates : int;
  seed : int;
  enable_restructure : bool;
  max_iterations : int;
  jobs : int;
  probes : int;
      (* speculative depth probes per search iteration; >= 2 selects the
         multi-pivot mode.  Part of the search definition, never derived
         from [jobs]: the trajectory must not depend on the domain count *)
  eval_cache : bool;
  delta_reprice : bool;
  sweep_parallel : bool;
      (* fan the sweep's laxity points out over the worker pool (coarse
         grain); inside each point only speculative probes fan out *)
  range_power : bool;
      (* price width-scaled switching terms at the range analysis's
         effective widths instead of the declared ones.  Off by default:
         it changes estimates, and therefore search trajectories *)
}

let default_options =
  {
    clock_ns = 15.;
    style = Scheduler.Wavesched;
    depth = 4;
    max_candidates = 30;
    seed = 1;
    enable_restructure = true;
    max_iterations = 30;
    jobs = 1;
    probes = Search.default_num_probes;
    eval_cache = true;
    delta_reprice = true;
    sweep_parallel = true;
    range_power = false;
  }

let resolved_jobs options = Parallel.resolve_jobs options.jobs

type design = {
  d_solution : Solution.t;
  d_objective : Solution.objective;
  d_laxity : float;
  d_enc_min : float;
  d_enc_budget : float;
  d_search : Search.stats;
  d_env : Solution.env;
}

(* --- Store tiers -------------------------------------------------------------

   Everything [build_env] produces upstream of the search is independent of
   the objective, the laxity and most options, so it is persisted in its
   own store namespaces at the granularity it is actually keyed by:

   - ["sim"]: the behavioral simulation run + profile, keyed by
     (program, workload) only — every synth, sweep point and lint against
     a known workload skips [Sim.simulate];
   - ["traces"]: the estimator's unit/value switching memo contents (the
     k-way trace-merge results), keyed by (program, workload), seeded into
     a fresh context so a warm-miss search starts with a hot estimator.

   A warm *miss* — same program and workload, new objective or laxity —
   misses the ["design"] tier but hits both front-end tiers, which is where
   its speedup comes from.  The module-library characterisation has no tier
   of its own: its digest is part of every design and sweep key.  Each tier
   stays bit-identical to a cold computation: memo values are pure
   functions of their keys, and [IMPACT_STORE_CHECK=1] recomputes every
   tier's warm answer fresh and asserts identity. *)

let store_version = 3

let canonical_digest v = Digest.to_hex (Digest.string (Marshal.to_string v []))

let program_digest (p : Graph.program) =
  canonical_digest
    ( Graph.nodes p.Graph.graph,
      Graph.edges p.Graph.graph,
      p.Graph.top,
      p.Graph.prog_inputs,
      p.Graph.prog_outputs,
      p.Graph.prog_name )

(* The characterisation is a static value: digest it once, not per key. *)
let library_digest =
  let d = lazy (canonical_digest (Module_library.all_specs Module_library.default)) in
  fun () -> Lazy.force d

let front_key ~kind program ~workload =
  Store.key
    (String.concat "|"
       [
         "impact-store";
         string_of_int store_version;
         kind;
         program_digest program;
         canonical_digest workload;
       ])

let sim_key program ~workload = front_key ~kind:"sim" program ~workload
let traces_key program ~workload = front_key ~kind:"traces" program ~workload

(* [IMPACT_STORE_CHECK=1] recomputes every warm answer cold and asserts the
   two agree on all run-to-run-reproducible outputs (the timing diagnostics
   in {!Search.stats} are exempt by definition). *)
let store_check () = Impact_util.Envflag.enabled "IMPACT_STORE_CHECK"

let elapsed_ns f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, int_of_float ((Unix.gettimeofday () -. t0) *. 1e9))

(* Every payload is [Marshal (tag, value)].  The tag is read before any
   typed field is touched, so a payload of another kind (or a damaged one)
   decodes as a miss. *)
let encode tag v = Marshal.to_string (tag, v) []

let decode tag payload =
  match (Marshal.from_string payload 0 : string * _) with
  | t, v when String.equal t tag -> Some v
  | _ -> None
  | exception _ -> None

(* The one path every result tier takes.  [cold ()] returns the answer and
   a thunk for its persisted form, forced only on a store miss, so a
   storeless call never builds it.  A hit goes through [load], which
   rebuilds and validates it: [None] or an exception there reads as a miss,
   recomputed and overwritten.  Under [IMPACT_STORE_CHECK] a hit is also
   recomputed cold and must agree on [fingerprint]; that [Failure]
   propagates.  A miss records its measured wall time as the object's
   recompute cost. *)
let get_or_compute ?store ~ns ~tag ~key ~load ~fingerprint cold =
  match store with
  | None -> fst (cold ())
  | Some st -> (
    let k = key () in
    let miss () =
      let (v, persisted), cost_ns = elapsed_ns cold in
      (try Store.put ~ns ~cost_ns st k (encode tag (persisted ())) with _ -> ());
      v
    in
    match Option.bind (Store.find ~ns st k) (decode tag) with
    | None -> miss ()
    | Some entry -> (
      match load entry with
      | None -> miss ()
      | exception _ -> miss ()
      | Some v ->
        if store_check () && fingerprint v <> fingerprint (fst (cold ())) then
          failwith ("impact store: warm " ^ tag ^ " diverges from a cold recomputation");
        v))

(* A hit re-attaches the caller's program to the persisted event log. *)
let simulate_cached ?store program ~workload =
  get_or_compute ?store ~ns:"sim" ~tag:"sim"
    ~key:(fun () -> sim_key program ~workload)
    ~load:(fun portable ->
      let run = Sim.of_portable program portable in
      if
        run.Sim.passes = List.length workload
        && Array.length run.Sim.pass_outputs = max run.Sim.passes 1
      then Some run
      else None)
    ~fingerprint:(fun run -> canonical_digest (Sim.to_portable run))
    (fun () ->
      let run = Sim.simulate program ~workload in
      (run, fun () -> Sim.to_portable run))

(* The traces tier is not a get-or-compute answer: it seeds a context before
   the search and accumulates what the search memoised after it. *)
let find_traces st k : Estimate.memo_snapshot option =
  Option.bind (Store.find ~ns:"traces" st k) (decode "traces")

(* Seed a fresh estimation context from the traces tier (entry granularity:
   unit signature — the canonical sorted operation set).  Under
   IMPACT_STORE_CHECK every seeded entry is recomputed from the traces and
   must agree bit-for-bit; a [Failure] there is a real divergence, any
   other decoding problem is an ordinary miss. *)
let seed_traces ?store program ~workload est_ctx =
  match Option.bind store (fun st -> find_traces st (traces_key program ~workload)) with
  | None -> ()
  | Some snapshot -> (
    try Estimate.seed_memos ~check:(store_check ()) est_ctx snapshot with
    | Failure _ as e -> raise e
    | _ -> ())

(* Publish what this request's searches memoised back into the traces tier,
   merged with whatever is already there (the tier accumulates across
   objectives and laxities, and re-reading right before the write keeps
   what a concurrent writer added).  Skips the write when nothing new was
   computed; the recorded cost is the measured time spent in this
   context's memo misses. *)
let sync_traces st program ~workload est_ctx =
  try
    let k = traces_key program ~workload in
    let fresh = Estimate.export_memos est_ctx in
    let existing =
      find_traces st k
      |> Option.value ~default:{ Estimate.ms_units = []; ms_values = [] }
    in
    let merge old now =
      List.fold_left
        (fun acc (key, v) -> if List.mem_assoc key acc then acc else (key, v) :: acc)
        old now
      |> List.sort compare
    in
    let merged =
      {
        Estimate.ms_units = merge existing.Estimate.ms_units fresh.Estimate.ms_units;
        ms_values = merge existing.Estimate.ms_values fresh.Estimate.ms_values;
      }
    in
    if merged <> existing then
      Store.put ~ns:"traces" ~cost_ns:(Estimate.memo_cost_ns est_ctx) st k
        (encode "traces" merged)
  with _ -> ()

let build_env ?(options = default_options) ?store program ~workload ~objective ~laxity =
  let run = simulate_cached ?store program ~workload in
  let min_stg =
    Scheduler.min_enc_schedule options.style ~clock_ns:options.clock_ns program
      Module_library.default
  in
  let enc_min = Enc.analytic min_stg run.Sim.profile in
  let area_ref =
    let b = Impact_rtl.Binding.parallel program.Graph.graph Module_library.default in
    let dp = Impact_rtl.Datapath.build b in
    Impact_rtl.Binding.fu_area b +. Impact_rtl.Binding.reg_area b
    +. Impact_rtl.Datapath.mux_area dp
  in
  let est_ctx =
    (* One analysis serves both consumers: the IMPACT_RANGE_CHECK soundness
       gate (assert every simulated value sits inside its inferred fact)
       and, under [range_power], effective-width pricing. *)
    if options.range_power || Ranges.check_enabled () then begin
      let analysis = Ranges.analyze program in
      if Ranges.check_enabled () then Rangecheck.check analysis run;
      if options.range_power then
        Estimate.create_ctx ~eff:(Ranges.effective_widths analysis) run
      else Estimate.create_ctx run
    end
    else Estimate.create_ctx run
  in
  seed_traces ?store program ~workload est_ctx;
  let env =
    {
      Solution.program;
      library = Module_library.default;
      sched_config = Scheduler.config_of_style options.style ~clock_ns:options.clock_ns;
      est_ctx;
      enc_budget = laxity *. enc_min;
      objective;
      area_ref;
    }
  in
  (env, enc_min)

(* Run the search inside an already-built environment: this is what lets a
   sweep share one simulation, estimation context, signature cache and
   worker pool across all of its synthesis points. *)
let synthesize_env ~options ?pool ?cache env ~enc_min ~objective ~laxity =
  let initial = Solution.initial ?cache env in
  let rng = Rng.create ~seed:options.seed in
  (* Ablation A1: optionally strip the restructuring move from the set. *)
  let filter move =
    options.enable_restructure
    || match move with Moves.Restructure _ -> false | _ -> true
  in
  let solution, stats =
    Search.optimize env initial ~rng ~depth:options.depth
      ~max_candidates:options.max_candidates ~max_iterations:options.max_iterations
      ~filter ?pool ?cache ~delta:options.delta_reprice ~num_probes:options.probes
      ()
  in
  {
    d_solution = solution;
    d_objective = objective;
    d_laxity = laxity;
    d_enc_min = enc_min;
    d_enc_budget = env.Solution.enc_budget;
    d_search = stats;
    d_env = env;
  }

(* --- Region-fragment cache -------------------------------------------------

   The incremental scheduler's fragment memo, threaded through the signature
   cache into every cached-path schedule.  It exists only with a store:
   fragments persist in their own ["frag"] tier, keyed by (program identity,
   region content digest), so a warm-miss rerun — same program, shifted
   laxity — starts with a hot fragment cache.  Within one storeless run the
   memo does not pay: next to the signature cache it made every
   benchmark's synthesis slower and allocated ~1.5x the major-heap words
   (DESIGN.md "Incremental scheduling" has the measurements).  The
   per-region digest covers the config fingerprint and every per-node
   model value, so the tier needs no options/library component in its
   context. *)

let frag_context program =
  String.concat "|"
    [ "impact-store"; string_of_int store_version; "frag"; program_digest program ]

let frag_backing st =
  {
    Impact_sched.Fragcache.bk_find =
      (fun full -> try Store.find ~ns:"frag" st (Store.key full) with _ -> None);
    bk_put =
      (fun full ~cost_ns payload ->
        try Store.put ~ns:"frag" ~cost_ns st (Store.key full) payload with _ -> ());
  }

let make_frags ?store ~options program =
  match store with
  | Some st when options.eval_cache ->
    Some
      (Impact_sched.Fragcache.create ~context:(frag_context program)
         ~backing:(frag_backing st) ())
  | _ -> None

(* Create the pool/cache requested by [options] — unless the caller supplied
   shared ones — and always shut a created pool down.  [frags] seeds the
   created cache's fragment memo; a caller-supplied cache keeps its own.
   A pool is created only when [fans_out] says the work has a parallel
   grain: an idle worker domain still joins every stop-the-world minor
   collection, which made a flat ([probes = 1]) synthesis at [jobs = 2]
   ~1.5x slower than at [jobs = 1] on a 2-core machine. *)
let with_engine ~options ~fans_out ?pool ?cache ?frags f =
  let cache =
    match cache with
    | Some _ -> cache
    | None ->
      if options.eval_cache then Some (Solution.create_cache ?frags ()) else None
  in
  match pool with
  | Some _ -> f ?pool ?cache ()
  | None ->
    let jobs = resolved_jobs options in
    if jobs <= 1 || not fans_out then f ?pool:None ?cache ()
    else Parallel.with_pool ~jobs (fun pool -> f ?pool:(Some pool) ?cache ())

(* --- Persistent result store ----------------------------------------------

   The store maps a canonical description of a synthesis request — program,
   workload, library characterisation, the trajectory-defining options, the
   objective/laxity target — to the solved result.  Payloads are Marshal
   snapshots of the *decision* (binding, restructured ports, schedule,
   search stats) plus the metrics the decision priced to; a warm load
   replays the decision through the exact evaluation path the search uses
   and cross-checks every recorded metric, so any drift (code, library,
   stale schedule) reads as a miss and falls back to a cold search that
   overwrites the entry. *)

(* Only trajectory-defining knobs participate: [jobs], [delta_reprice] and
   [sweep_parallel] are neutral by construction, so results computed at any
   engine configuration serve every other one (test_parallel and
   test_parallel_sweep check [jobs] and [sweep_parallel], test_delta checks
   [delta_reprice]).  [eval_cache] is not neutral: a signature-cache hit
   hands back a relabeled-isomorphic binding whose unit ids differ from the
   ones a fresh build would assign, and later moves are drawn by unit id, so
   the two settings can end at different designs (loops, power, laxity
   2.25).  Like [range_power] it is appended only when it differs from the
   default, so every default key stays byte-identical. *)
let options_fingerprint o =
  Printf.sprintf "clock=%h,style=%s,depth=%d,cand=%d,seed=%d,restructure=%b,iter=%d,probes=%d%s%s"
    o.clock_ns
    (match o.style with Scheduler.Wavesched -> "wavesched" | Scheduler.Baseline -> "baseline")
    o.depth o.max_candidates o.seed o.enable_restructure o.max_iterations o.probes
    (if o.range_power then ",range_power=true" else "")
    (if o.eval_cache then "" else ",eval_cache=false")

let objective_tag = function
  | Solution.Minimize_area -> "area"
  | Solution.Minimize_power -> "power"

let key_string ~options ~request program ~workload =
  String.concat "|"
    [
      "impact-store";
      string_of_int store_version;
      program_digest program;
      canonical_digest workload;
      library_digest ();
      options_fingerprint options;
      request;
    ]

let design_key ~options program ~workload ~objective ~laxity =
  Store.key
    (key_string ~options program ~workload
       ~request:(Printf.sprintf "design:%s:%h" (objective_tag objective) laxity))

let sweep_key ~options program ~workload ~laxities =
  Store.key
    (key_string ~options program ~workload
       ~request:
         (Printf.sprintf "sweep:%s"
            (String.concat "," (List.map (Printf.sprintf "%h") laxities))))

type design_entry = {
  de_binding : Binding.portable;
  de_restructured : Impact_rtl.Datapath.port list;
  de_stg : Stg.t;
  de_stats : Search.stats;
  de_enc_min : float;
  de_enc : float;
  de_vdd : float;
  de_area : float;
  de_cost : float;
  de_ledger : (string * float) list;  (** sorted by term name *)
}

type sweep_entry = {
  se_units : ((Solution.objective * float) * design_entry) list;
  se_base_power : float;
  se_base_area : float;
  se_points : (float * float * float * float * float * float) list;
      (* laxity, a_power, i_power, i_area, a_vdd, i_vdd *)
}

(* The ledger's term listing is table-fold-ordered; sorting makes it a
   canonical value that survives the round-trip comparison. *)
let ledger_terms_of sol =
  match sol.Solution.ledger with
  | None -> []
  | Some ledger -> List.sort compare (Estimate.ledger_terms ledger)

let entry_of_design d =
  let sol = d.d_solution in
  {
    de_binding = Binding.to_portable sol.Solution.binding;
    de_restructured = sol.Solution.restructured;
    de_stg = sol.Solution.stg;
    de_stats = d.d_search;
    de_enc_min = d.d_enc_min;
    de_enc = sol.Solution.enc;
    de_vdd = sol.Solution.vdd;
    de_area = sol.Solution.area;
    de_cost = sol.Solution.cost;
    de_ledger = ledger_terms_of sol;
  }

let feq a b = a = b || (Float.is_nan a && Float.is_nan b)

(* Replays a persisted decision and cross-checks every recorded metric;
   [None] (or an exception, which {!get_or_compute} treats alike) reads as
   a miss. *)
let design_of_entry env ~enc_min ~objective ~laxity entry =
  if not (feq enc_min entry.de_enc_min) then None
  else
    match
      Binding.of_portable env.Solution.program.Graph.graph env.Solution.library
        entry.de_binding
    with
    | Error _ -> None
    | Ok binding ->
      let sol =
        Solution.rebuild env ~binding ~restructured:entry.de_restructured
          ~reuse_stg:(Some entry.de_stg)
      in
      if
        feq sol.Solution.cost entry.de_cost
        && feq sol.Solution.area entry.de_area
        && feq sol.Solution.enc entry.de_enc
        && feq sol.Solution.vdd entry.de_vdd
        && Stg.signature sol.Solution.stg = Stg.signature entry.de_stg
        && ledger_terms_of sol = entry.de_ledger
      then
        Some
          {
            d_solution = sol;
            d_objective = objective;
            d_laxity = laxity;
            d_enc_min = enc_min;
            d_enc_budget = env.Solution.enc_budget;
            d_search = entry.de_stats;
            d_env = env;
          }
      else None

let design_fingerprint d =
  let sol = d.d_solution in
  Printf.sprintf "%h|%h|%h|%h|%s|%s" sol.Solution.cost sol.Solution.area
    sol.Solution.enc sol.Solution.vdd
    (Stg.signature sol.Solution.stg)
    (String.concat ";" (List.map Moves.describe d.d_search.Search.moves_applied))

let synthesize ?(options = default_options) ?pool ?cache ?store program ~workload
    ~objective ~laxity () =
  let env, enc_min = build_env ~options ?store program ~workload ~objective ~laxity in
  let d =
    get_or_compute ?store ~ns:"design" ~tag:"design"
      ~key:(fun () -> design_key ~options program ~workload ~objective ~laxity)
      ~load:(design_of_entry env ~enc_min ~objective ~laxity)
      ~fingerprint:design_fingerprint
      (fun () ->
        let d =
          with_engine ~options ~fans_out:(options.probes > 1) ?pool ?cache
            ?frags:(make_frags ?store ~options program)
            (fun ?pool ?cache () ->
              synthesize_env ~options ?pool ?cache env ~enc_min ~objective ~laxity)
        in
        (d, fun () -> entry_of_design d))
  in
  Option.iter (fun st -> sync_traces st program ~workload env.Solution.est_ctx) store;
  d

let restructure_all design =
  let sol = design.d_solution in
  let ports =
    Impact_rtl.Datapath.restructurable sol.Solution.dp
    |> List.map (fun idx ->
           (Impact_rtl.Datapath.network sol.Solution.dp idx).Impact_rtl.Datapath.net_port)
  in
  (* This is an analysis helper (ablation A1): the schedule is kept so the
     comparison isolates the tree shapes (same states, same binding, same
     register lifetimes); recorded path delays may be stale, which the
     paper's move semantics permit until a later move compensates. *)
  let env = { design.d_env with Solution.enc_budget = infinity } in
  let sol' =
    Solution.rebuild env ~binding:sol.Solution.binding ~restructured:ports
      ~reuse_stg:(Some sol.Solution.stg)
  in
  { design with d_solution = sol' }

let measure design program ~workload ?vdd () =
  let sol = design.d_solution in
  let vdd = Option.value vdd ~default:sol.Solution.vdd in
  Measure.measure program sol.Solution.stg sol.Solution.dp ~workload ~vdd ()

type sweep_point = {
  sp_laxity : float;
  sp_a_power : float;
  sp_i_power : float;
  sp_i_area : float;
  sp_a_vdd : float;
  sp_i_vdd : float;
  sp_area_design : design;
  sp_power_design : design;
}

type sweep = {
  sw_base_power : float;
  sw_base_area : float;
  sw_points : sweep_point list;
}

(* One unit per distinct (objective, laxity), with the laxity-1.0
   area-optimized base always first (it is the normalization reference even
   when 1.0 is not a sweep point). *)
let sweep_units laxities =
  (Solution.Minimize_area, 1.0)
  :: List.concat_map
       (fun laxity ->
         (if laxity = 1.0 then [] else [ (Solution.Minimize_area, laxity) ])
         @ [ (Solution.Minimize_power, laxity) ])
       laxities

let figure13_cold ~options ?pool ?cache ?frags env0 ~enc_min program ~workload ~laxities =
  (* One simulation, estimation context, signature cache and worker pool
     serve the whole sweep: each point only changes the ENC budget and the
     objective, which are exactly the environment-dependent inputs the
     cache prices per call.

     Sweep points are mutually independent — each synthesis seeds its own
     RNG from [options.seed] and only reads the shared run/memos, whose
     entries are deterministic functions of their keys — so the coarse
     fan-out below is bit-identical to the sequential sweep regardless of
     which domain computes which point (asserted by test_parallel_sweep). *)
  with_engine ~options
    ~fans_out:(options.sweep_parallel || options.probes > 1)
    ?pool ?cache ?frags (fun ?pool ?cache () ->
      let synth ~objective ~laxity =
        let env =
          { env0 with Solution.enc_budget = laxity *. enc_min; objective }
        in
        synthesize_env ~options ?pool ?cache env ~enc_min ~objective ~laxity
      in
      let point_map : 'a 'b. ('a -> 'b) -> 'a list -> 'b list =
        fun f xs ->
         (* Coarse fan-out needs real cores: time-slicing sweep points over
            one core only adds dispatch and per-domain GC overhead. *)
         match pool with
         | Some p
           when options.sweep_parallel && Parallel.jobs p > 1
                && Parallel.physical_parallelism p > 1 ->
           Parallel.map p f xs
         | Some _ | None -> List.map f xs
      in
      (* Phase 1 — synthesis, one run per sweep unit. *)
      let units = sweep_units laxities in
      let designs =
        List.combine units
          (point_map (fun (objective, laxity) -> synth ~objective ~laxity) units)
      in
      let design_for key = List.assoc key designs in
      let base_design = design_for (Solution.Minimize_area, 1.0) in
      (* Phase 2 — measurement: the base at nominal supply plus both designs
         of every point at their own scaled supplies, all independent. *)
      let measure_units =
        (base_design, Some Impact_power.Vdd.nominal)
        :: List.concat_map
             (fun laxity ->
               [
                 (design_for (Solution.Minimize_area, laxity), None);
                 (design_for (Solution.Minimize_power, laxity), None);
               ])
             laxities
      in
      let measured =
        point_map (fun (design, vdd) -> measure design program ~workload ?vdd ()) measure_units
      in
      let base_power = (List.hd measured).Measure.m_power in
      let base_area = base_design.d_solution.Solution.area in
      let rec assemble laxities measured =
        match (laxities, measured) with
        | [], _ -> []
        | laxity :: rest, a_measured :: i_measured :: measured_rest ->
          let area_design = design_for (Solution.Minimize_area, laxity) in
          let power_design = design_for (Solution.Minimize_power, laxity) in
          {
            sp_laxity = laxity;
            sp_a_power = a_measured.Measure.m_power /. base_power;
            sp_i_power = i_measured.Measure.m_power /. base_power;
            sp_i_area = power_design.d_solution.Solution.area /. base_area;
            sp_a_vdd = area_design.d_solution.Solution.vdd;
            sp_i_vdd = power_design.d_solution.Solution.vdd;
            sp_area_design = area_design;
            sp_power_design = power_design;
          }
          :: assemble rest measured_rest
        | _ :: _, _ -> invalid_arg "figure13: measurement/laxity mismatch"
      in
      let points = assemble laxities (List.tl measured) in
      ( { sw_base_power = base_power; sw_base_area = base_area; sw_points = points },
        designs ))

(* A sweep's persisted form: every unit's design entry plus the published
   numbers (the power ratios are the measurements a warm hit skips). *)
let entry_of_sweep sweep designs =
  {
    se_units = List.map (fun (unit, d) -> (unit, entry_of_design d)) designs;
    se_base_power = sweep.sw_base_power;
    se_base_area = sweep.sw_base_area;
    se_points =
      List.map
        (fun p -> (p.sp_laxity, p.sp_a_power, p.sp_i_power, p.sp_i_area, p.sp_a_vdd, p.sp_i_vdd))
        sweep.sw_points;
  }

(* Rebuild a persisted sweep.  The recorded designs go through the same
   metric cross-checks as warm single designs; the recorded point numbers
   additionally must be internally consistent with the rebuilt designs
   wherever that can be re-derived without re-measuring (areas, supplies).
   The power ratios themselves come from {!Measure} — skipping those calls
   is most of the warm speedup — so they are covered by the checksummed
   envelope plus [IMPACT_STORE_CHECK]. *)
let sweep_of_entry env0 ~enc_min ~laxities entry =
  if
    List.map fst entry.se_units <> sweep_units laxities
    || List.map (fun (l, _, _, _, _, _) -> l) entry.se_points <> laxities
  then None
  else
    let rec load acc = function
      | [] -> Some (List.rev acc)
      | ((objective, laxity), de) :: rest -> (
        let env = { env0 with Solution.enc_budget = laxity *. enc_min; objective } in
        match design_of_entry env ~enc_min ~objective ~laxity de with
        | None -> None
        | Some d -> load (((objective, laxity), d) :: acc) rest)
    in
    match load [] entry.se_units with
    | None -> None
    | Some designs ->
      let design_for key = List.assoc key designs in
      let points =
        List.map
          (fun (laxity, a_power, i_power, i_area, a_vdd, i_vdd) ->
            {
              sp_laxity = laxity;
              sp_a_power = a_power;
              sp_i_power = i_power;
              sp_i_area = i_area;
              sp_a_vdd = a_vdd;
              sp_i_vdd = i_vdd;
              sp_area_design = design_for (Solution.Minimize_area, laxity);
              sp_power_design = design_for (Solution.Minimize_power, laxity);
            })
          entry.se_points
      in
      let base_area = entry.se_base_area in
      let consistent p =
        feq p.sp_a_vdd p.sp_area_design.d_solution.Solution.vdd
        && feq p.sp_i_vdd p.sp_power_design.d_solution.Solution.vdd
        && feq p.sp_i_area (p.sp_power_design.d_solution.Solution.area /. base_area)
      in
      if
        feq base_area (design_for (Solution.Minimize_area, 1.0)).d_solution.Solution.area
        && List.for_all consistent points
      then
        Some
          {
            sw_base_power = entry.se_base_power;
            sw_base_area = base_area;
            sw_points = points;
          }
      else None

let sweep_fingerprint sw =
  Printf.sprintf "%h|%h|%s" sw.sw_base_power sw.sw_base_area
    (String.concat ";"
       (List.map
          (fun p ->
            Printf.sprintf "%h,%h,%h,%h,%h,%h|%s|%s" p.sp_laxity p.sp_a_power
              p.sp_i_power p.sp_i_area p.sp_a_vdd p.sp_i_vdd
              (design_fingerprint p.sp_area_design)
              (design_fingerprint p.sp_power_design))
          sw.sw_points))

let figure13 ?(options = default_options) ?pool ?cache ?store program ~workload
    ~laxities =
  let env0, enc_min =
    build_env ~options ?store program ~workload ~objective:Solution.Minimize_area
      ~laxity:1.0
  in
  let sweep =
    get_or_compute ?store ~ns:"design" ~tag:"sweep"
      ~key:(fun () -> sweep_key ~options program ~workload ~laxities)
      ~load:(sweep_of_entry env0 ~enc_min ~laxities)
      ~fingerprint:sweep_fingerprint
      (fun () ->
        let sweep, designs =
          figure13_cold ~options ?pool ?cache
            ?frags:(make_frags ?store ~options program)
            env0 ~enc_min program ~workload ~laxities
        in
        (sweep, fun () -> entry_of_sweep sweep designs))
  in
  Option.iter (fun st -> sync_traces st program ~workload env0.Solution.est_ctx) store;
  sweep
