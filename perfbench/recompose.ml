(* The traced run's recomposition of [Driver.synthesize] and
   [Driver.figure13] from the layers' public calls, with a span around each
   call.  The recomposed result must equal the library's own (the trace
   fidelity check), otherwise the per-layer numbers would describe a
   different program than the one the end-to-end runs measure. *)

module Driver = Impact_core.Driver
module Solution = Impact_core.Solution
module Search = Impact_core.Search
module Moves = Impact_core.Moves
module Scheduler = Impact_sched.Scheduler
module Enc = Impact_sched.Enc
module Stg = Impact_sched.Stg
module Fragcache = Impact_sched.Fragcache
module Sim = Impact_sim.Sim
module Estimate = Impact_power.Estimate
module Measure = Impact_power.Measure
module Ranges = Impact_cdfg.Ranges
module Rangecheck = Impact_sim.Rangecheck
module Library = Impact_modlib.Module_library
module Binding = Impact_rtl.Binding
module Datapath = Impact_rtl.Datapath
module Parallel = Impact_util.Parallel

type ctx = { rec_ : Spans.t; request : int; parent : int }

let span c name f = Spans.with_span c.rec_ ~parent:c.parent ~request:c.request name f
let sub c name f = span c name (fun id -> f { c with parent = id })

(* [Driver.build_env] without a store: simulate, minimum-ENC schedule,
   parallel-architecture area reference, estimation context. *)
let build_env c (options : Driver.options) (d : Design.t) ~workload ~objective ~laxity =
  sub c "core.build_env" (fun c ->
      let program = d.Design.program in
      let run = span c "sim.simulate" (fun _ -> Sim.simulate program ~workload) in
      let enc_min =
        span c "sched.min_enc" (fun _ ->
            let stg =
              Scheduler.min_enc_schedule options.Driver.style ~clock_ns:options.clock_ns
                program Library.default
            in
            Enc.analytic stg run.Sim.profile)
      in
      let area_ref =
        let b = Binding.parallel program.Impact_cdfg.Graph.graph Library.default in
        let dp = Datapath.build b in
        Binding.fu_area b +. Binding.reg_area b +. Datapath.mux_area dp
      in
      let est_ctx =
        span c "power.ctx" (fun _ ->
            if options.range_power || Ranges.check_enabled () then begin
              let analysis = Ranges.analyze program in
              if Ranges.check_enabled () then Rangecheck.check analysis run;
              if options.range_power then
                Estimate.create_ctx ~eff:(Ranges.effective_widths analysis) run
              else Estimate.create_ctx run
            end
            else Estimate.create_ctx run)
      in
      let env =
        {
          Solution.program;
          library = Library.default;
          sched_config = Scheduler.config_of_style options.style ~clock_ns:options.clock_ns;
          est_ctx;
          enc_budget = laxity *. enc_min;
          objective;
          area_ref;
        }
      in
      (env, enc_min))

(* The engine [Driver.synthesize] creates when the caller supplies none: a
   signature cache over an in-memory fragment cache, and a pool when
   [jobs > 1]. *)
let with_engine (options : Driver.options) (d : Design.t) f =
  let cache =
    if options.eval_cache then
      Some
        (Solution.create_cache
           ~frags:(Fragcache.create ~context:("perfbench|frag|" ^ d.Design.name) ())
           ())
    else None
  in
  let jobs = Driver.resolved_jobs options in
  if jobs <= 1 then f None cache else Parallel.with_pool ~jobs (fun p -> f (Some p) cache)

let search c (options : Driver.options) ?pool ?cache env =
  let initial = span c "core.initial" (fun _ -> Solution.initial ?cache env) in
  let filter move =
    options.Driver.enable_restructure
    || match move with Moves.Restructure _ -> false | _ -> true
  in
  span c "core.search" (fun _ ->
      Search.optimize env initial ~rng:(Impact_util.Rng.create ~seed:options.seed)
        ~depth:options.depth ~max_candidates:options.max_candidates
        ~max_iterations:options.max_iterations ~filter ?pool ?cache
        ~delta:options.delta_reprice ~num_probes:options.probes ())

(* One traced synthesize: the solution, its search statistics and the
   estimation context (for the memo counter). *)
let synthesize c options d ~workload ~objective ~laxity =
  sub c "op.synthesize" (fun c ->
      let env, _ = build_env c options d ~workload ~objective ~laxity in
      with_engine options d (fun pool cache ->
          let sol, stats = search c options ?pool ?cache env in
          (sol, stats, env)))

let solution_key (s : Solution.t) =
  Printf.sprintf "%h|%h|%h|%h|%s" s.Solution.cost s.Solution.area s.Solution.enc
    s.Solution.vdd (Stg.signature s.Solution.stg)

(* The units [Driver.figure13] synthesizes: the laxity-1.0 area base first,
   then per laxity the area and power designs. *)
let sweep_units laxities =
  (Solution.Minimize_area, 1.0)
  :: List.concat_map
       (fun l ->
         (if l = 1.0 then [] else [ (Solution.Minimize_area, l) ])
         @ [ (Solution.Minimize_power, l) ])
       laxities

type sweep_point = {
  laxity : float;
  a_power : float;
  i_power : float;
  i_area : float;
  area_sol : Solution.t;
  power_sol : Solution.t;
}

(* One traced figure13: per-unit searches, then measurements, fanned out
   over the pool exactly as the driver does. *)
let figure13 c (options : Driver.options) d ~workload ~laxities =
  sub c "op.figure13" (fun c ->
      let env0, enc_min =
        build_env c options d ~workload ~objective:Solution.Minimize_area ~laxity:1.0
      in
      with_engine options d (fun pool cache ->
          let point_map f xs =
            match pool with
            | Some p
              when options.sweep_parallel && Parallel.jobs p > 1
                   && Parallel.physical_parallelism p > 1 ->
              Parallel.map p f xs
            | _ -> List.map f xs
          in
          let units = sweep_units laxities in
          let sols =
            point_map
              (fun (objective, laxity) ->
                let env = { env0 with Solution.enc_budget = laxity *. enc_min; objective } in
                search c options ?pool ?cache env)
              units
          in
          let designs = List.combine units (List.map fst sols) in
          let sol_for k = List.assoc k designs in
          let base = sol_for (Solution.Minimize_area, 1.0) in
          let measure_units =
            (base, Some Impact_power.Vdd.nominal)
            :: List.concat_map
                 (fun l ->
                   [ (sol_for (Solution.Minimize_area, l), None);
                     (sol_for (Solution.Minimize_power, l), None) ])
                 laxities
          in
          let measured =
            point_map
              (fun ((s : Solution.t), vdd) ->
                span c "power.measure" (fun _ ->
                    let vdd = Option.value vdd ~default:s.Solution.vdd in
                    Measure.measure d.Design.program s.Solution.stg s.Solution.dp ~workload ~vdd ()))
              measure_units
          in
          let base_power = (List.hd measured).Measure.m_power in
          let base_area = base.Solution.area in
          let rec assemble ls ms =
            match (ls, ms) with
            | l :: rest, a :: i :: ms_rest ->
              let area_sol = sol_for (Solution.Minimize_area, l)
              and power_sol = sol_for (Solution.Minimize_power, l) in
              {
                laxity = l;
                a_power = a.Measure.m_power /. base_power;
                i_power = i.Measure.m_power /. base_power;
                i_area = power_sol.Solution.area /. base_area;
                area_sol;
                power_sol;
              }
              :: assemble rest ms_rest
            | _ -> []
          in
          (base_power, base_area, assemble laxities (List.tl measured), List.map snd sols, env0)))

(* Fidelity: equal cost, area, ENC, Vdd and STG signature for every design,
   and equal sweep ratios. *)
let synth_matches (sol : Solution.t) (d : Driver.design) =
  solution_key sol = solution_key d.Driver.d_solution

let sweep_matches (base_power, base_area, points, _, _) (sw : Driver.sweep) =
  base_power = sw.Driver.sw_base_power
  && base_area = sw.Driver.sw_base_area
  && List.length points = List.length sw.Driver.sw_points
  && List.for_all2
       (fun p q ->
         p.laxity = q.Driver.sp_laxity && p.a_power = q.Driver.sp_a_power
         && p.i_power = q.Driver.sp_i_power && p.i_area = q.Driver.sp_i_area
         && solution_key p.area_sol = solution_key q.Driver.sp_area_design.Driver.d_solution
         && solution_key p.power_sol = solution_key q.Driver.sp_power_design.Driver.d_solution)
       points sw.Driver.sw_points
