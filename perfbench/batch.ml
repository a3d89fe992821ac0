(* The in-process workloads: [synth] (batch Driver.synthesize requests) and
   [sweep] (Driver.figure13 on gcd, cordic and paulin).

   Both run in rounds that touch every benchmark of the workload once, in
   a seeded order.  The requests repeat with a fixed period (a cycle: two
   rounds for synth, whose objectives alternate, three for sweep, which
   rotates through three workloads per benchmark), and a run lasts until
   its time is up and at least one cycle is done.  The end-to-end rate is
   taken over the balanced mix — distinct requests divided by the sum of
   their mean operation times — so a faster commit times more copies of
   the same requests, not a different mix. *)

open Common
module Solution = Impact_core.Solution
module Search = Impact_core.Search
module Estimate = Impact_power.Estimate
module Sim = Impact_sim.Sim
module Parallel = Impact_util.Parallel

type kind = Synth | Sweep

let paper = [ "loops"; "gcd"; "send"; "dealer"; "cordic"; "paulin" ]
let sweep_benches = [ "gcd"; "cordic"; "paulin" ]
let laxity_grid = List.init 9 (fun i -> 1.0 +. (0.25 *. fi i))

(* Synth draws from the middle of the grid: at 1.0 every design is the
   parallel one and near 3.0 the slack saturates, while search time varies
   least between the central points. *)
let synth_laxities = [ 1.5; 1.75; 2.0; 2.25; 2.5 ]
let passes = 60

type request = {
  design : Design.t;
  objective : Solution.objective;
  laxity : float;  (** synth only; a sweep covers the whole grid *)
  data_seed : int;  (** workload seed, and search seed as the CLI sets it *)
}

let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Round [r] of a run on [seed].  Synth runs every paper benchmark once at
   the CLI's default workload seed; its objective alternates between rounds
   from a seeded start, and each (benchmark, objective) has one seeded
   laxity from the middle of the grid.  Sweep runs the three sweep
   benchmarks, each on the next of its three seeded workloads, so a run
   averages over workload data as well as benchmarks. *)
let sweep_workloads = 3
let cycle = function Synth -> 2 | Sweep -> sweep_workloads

let round kind ~seed designs r =
  let order = shuffle (Random.State.make [| seed; r; 17 |]) designs in
  List.map
    (fun (d : Design.t) ->
      let draw salt = Random.State.make [| seed; Hashtbl.hash d.Design.name; salt |] in
      match kind with
      | Synth ->
        let start = Random.State.bool (draw 0) in
        let objective, salt =
          if start = (r mod 2 = 0) then (Solution.Minimize_area, 1)
          else (Solution.Minimize_power, 2)
        in
        let laxity =
          List.nth synth_laxities (Random.State.int (draw salt) (List.length synth_laxities))
        in
        { design = d; objective; laxity; data_seed = 1 }
      | Sweep ->
        {
          design = d;
          objective = Solution.Minimize_power;
          laxity = 0.;
          data_seed = 1 + Random.State.int (draw (3 + (r mod sweep_workloads))) 1_000_000;
        })
    order

let options args kind req =
  ablated_options args
    {
      Driver.default_options with
      seed = req.data_seed;
      jobs = (match kind with Synth -> 1 | Sweep -> Parallel.detected_domains ());
    }

let workload_of req = req.design.Design.workload ~seed:req.data_seed ~passes

type outcome = Designed of Driver.design | Swept of Driver.sweep

let run_op args kind req =
  let options = options args kind req and workload = workload_of req in
  let program = req.design.Design.program in
  match kind with
  | Synth ->
    Designed
      (Driver.synthesize ~options program ~workload ~objective:req.objective
         ~laxity:req.laxity ())
  | Sweep -> Swept (Driver.figure13 ~options program ~workload ~laxities:laxity_grid)

(* Set-up: elaborate the workload's benchmarks, then one untimed warm-up
   operation on gcd, so the first timed operation does not pay the
   process's one-off initialisation (pool domains, lazily built tables). *)
let setup ?rec_ args kind =
  let designs =
    List.map
      (fun name ->
        match rec_ with
        | None -> Design.of_bench name
        | Some r -> Spans.with_span r ~request:0 "lang.elaborate" (fun _ -> Design.of_bench name))
      (match kind with Synth -> paper | Sweep -> sweep_benches)
  in
  let gcd = List.find (fun d -> d.Design.name = "gcd") designs in
  ignore
    (run_op args kind
       { design = gcd; objective = Solution.Minimize_power; laxity = 2.0; data_seed = 1 });
  designs

type traced = {
  tr_wall : float;  (** wall time of the traced recomposition *)
  tr_stats : (string * Search.stats) list;  (** per search, by benchmark *)
  tr_memo : int;  (** estimator memo entries after the operation *)
  tr_firings : int;  (** behavioral-simulation firings *)
}

type op = {
  id : int;  (** request id, shared by the operation's spans *)
  req : request;
  wall : float;
  cpu : float;
  rss : float;  (** peak resident MiB during the operation *)
  outcome : outcome;
  traced : traced option;
}

(* The traced recomposition of one request.  Returns its figures and the
   fidelity check against the library's own answer. *)
let trace_op r ~id args kind req =
  let c = { Recompose.rec_ = r; request = id; parent = -1 } in
  let options = options args kind req and workload = workload_of req in
  let name = req.design.Design.name in
  let counters env =
    let ctx = env.Solution.est_ctx in
    (Estimate.memo_entries ctx, (Estimate.run ctx).Sim.firings_total)
  in
  let t0 = now () in
  match kind with
  | Synth ->
    let sol, stats, env =
      Recompose.synthesize c options req.design ~workload ~objective:req.objective
        ~laxity:req.laxity
    in
    let wall = now () -. t0 in
    let memo, firings = counters env in
    ( { tr_wall = wall; tr_stats = [ (name, stats) ]; tr_memo = memo; tr_firings = firings },
      function Designed d -> Recompose.synth_matches sol d | Swept _ -> false )
  | Sweep ->
    let ((_, _, _, stats, env) as recomposed) =
      Recompose.figure13 c options req.design ~workload ~laxities:laxity_grid
    in
    let wall = now () -. t0 in
    let memo, firings = counters env in
    ( {
        tr_wall = wall;
        tr_stats = List.map (fun s -> (name, s)) stats;
        tr_memo = memo;
        tr_firings = firings;
      },
      function Swept sw -> Recompose.sweep_matches recomposed sw | Designed _ -> false )

(* The timed phase: requests in rounds until [seconds] have passed and at
   least one cycle is done (one round when traced: every benchmark once);
   the operation in flight at the deadline completes and counts.  A traced
   run also recomposes every request, alternately before and after the
   library call so that neither run has the warmer process in
   [trace.overhead]. *)
let timed ?rec_ args kind designs res =
  let deadline = now () +. args.seconds in
  let min_ops = (if Option.is_none rec_ then cycle kind else 1) * List.length designs in
  let ops = ref [] and id = ref 0 in
  let rec rounds r =
    let rec go = function
      | [] -> rounds (r + 1)
      | _ when now () >= deadline && !id >= min_ops -> ()
      | req :: rest ->
        incr id;
        res.attempted <- res.attempted + 1;
        (* Each run starts from a compacted heap with a fresh peak-RSS mark,
           as a one-request impact_cli process would. *)
        let fresh () =
          Gc.compact ();
          reset_peak_rss ()
        in
        let library () =
          fresh ();
          let c0 = self_cpu_s () and t0 = now () in
          let outcome = run_op args kind req in
          (outcome, now () -. t0, self_cpu_s () -. c0, peak_rss_mb "self")
        in
        let traced r =
          fresh ();
          trace_op r ~id:!id args kind req
        in
        (match
           match rec_ with
           | None -> (library (), None)
           | Some r when !id mod 2 = 0 ->
             let lib = library () in
             (lib, Some (traced r))
           | Some r ->
             let tr = traced r in
             (library (), Some tr)
         with
        | exception e ->
          res.failed <- res.failed + 1;
          problem res "%s: %s" req.design.Design.name (Printexc.to_string e)
        | (outcome, wall, cpu, rss), tr ->
          let traced =
            Option.map
              (fun (tr, matches) ->
                if not (matches outcome) then begin
                  res.failed <- res.failed + 1;
                  problem res "trace fidelity: recomposed %s differs from Driver's"
                    req.design.Design.name
                end;
                tr)
              tr
          in
          ops := { id = !id; req; wall; cpu; rss; outcome; traced } :: !ops);
        go rest
    in
    go (round kind ~seed:args.seed designs r)
  in
  rounds 0;
  List.rev !ops

(* Output oracle and quality over every reported design.  Returns the
   number of wrong designs and the quality figures keyed by (benchmark,
   objective): for synth each design's cost relative to the initial
   (parallel) architecture at the same objective and laxity, for sweep the
   normalized I-Power of every point. *)
let check ?rec_ res ops =
  let measure (d : Design.t) ~workload design =
    let m () = Driver.measure design d.Design.program ~workload () in
    match rec_ with
    | None -> m ()
    | Some r -> Spans.with_span r ~request:0 "power.measure" (fun _ -> m ())
  in
  let wrong = ref 0 and qor = ref [] in
  let check_design req label design =
    let workload = workload_of req in
    match Design.check_outputs req.design ~workload (measure req.design ~workload design) with
    | [] -> ()
    | first :: _ as bad ->
      incr wrong;
      res.failed <- res.failed + 1;
      problem res "wrong outputs: %s %s: %d mismatches, first at pass %d output %s (expected %s, got %s)"
        req.design.Design.name label (List.length bad) first.Design.pass first.Design.output
        first.Design.expected first.Design.got
  in
  List.iter
    (fun op ->
      match op.outcome with
      | Designed d ->
        check_design op.req (Printf.sprintf "laxity %g" op.req.laxity) d;
        let initial = Solution.initial d.Driver.d_env in
        qor :=
          ( (op.req.design.Design.name, op.req.objective),
            d.Driver.d_solution.Solution.cost /. initial.Solution.cost )
          :: !qor
      | Swept sw ->
        List.iter
          (fun p ->
            let l = p.Driver.sp_laxity in
            check_design op.req (Printf.sprintf "area design at laxity %g" l) p.Driver.sp_area_design;
            check_design op.req (Printf.sprintf "power design at laxity %g" l) p.Driver.sp_power_design;
            qor := ((op.req.design.Design.name, op.req.objective), p.Driver.sp_i_power) :: !qor)
          sw.Driver.sw_points)
    ops;
  (!wrong, !qor)

(* Mean of [f] per distinct request. *)
let per_group ops f =
  let key o = (o.req.design.Design.name, o.req.objective, o.req.laxity, o.req.data_seed) in
  List.map
    (fun k -> mean (List.filter_map (fun o -> if key o = k then Some (f o) else None) ops))
    (List.sort_uniq compare (List.map key ops))

let end_to_end res ops ~qor =
  let walls = per_group ops (fun o -> o.wall) and cpus = per_group ops (fun o -> o.cpu) in
  metric res "ops_per_s" "ops/s" (fi (List.length walls) /. sum walls);
  metric res "cpu_s" "s" (mean cpus);
  (* Geometric mean over (benchmark, objective) groups of each group's
     geometric mean, so the mix a run happens to cover weighs every group
     alike. *)
  let groups = List.sort_uniq compare (List.map fst qor) in
  metric res "qor_geomean" "ratio"
    (geomean
       (List.map
          (fun g -> geomean (List.filter_map (fun (k, v) -> if k = g then Some v else None) qor))
          groups));
  metric res "peak_rss_mb" "MiB" (List.fold_left (fun m o -> Float.max m o.rss) 0. ops)

let per_layer res r ops =
  Layers.span_ms res r;
  let tab = Spans.by_name r in
  let self name = match Hashtbl.find_opt tab name with Some (_, _, s) -> s | None -> 0. in
  let traced = List.filter_map (fun o -> Option.map (fun t -> (o, t)) o.traced) ops in
  let stats = List.concat_map (fun (_, t) -> t.tr_stats) traced in
  let total f = fi (List.fold_left (fun a (_, s) -> a + f s) 0 stats) in
  let per_search f = ratio (total f) (fi (List.length stats)) in
  let busy =
    List.fold_left
      (fun a (n, (_, _, s)) -> if String.length n > 3 && String.sub n 0 3 = "op." then a else a +. s)
      0. (List.of_seq (Hashtbl.to_seq tab))
  in
  metric res "core.search_share" "ratio" (ratio (self "core.search") busy);
  metric res "core.candidates" "count" (per_search (fun s -> s.Search.candidates_evaluated));
  metric res "core.ms_per_candidate" "ms"
    (1000. *. ratio (self "core.search") (total (fun s -> s.Search.candidates_evaluated)));
  metric res "core.cache_hit_ratio" "ratio"
    (ratio (total (fun s -> s.Search.cache_hits)) (total (fun s -> s.Search.candidates_evaluated)));
  metric res "core.pruned_infeasible" "count" (per_search (fun s -> s.Search.pruned_infeasible));
  metric res "core.delta_repriced" "count" (per_search (fun s -> s.Search.delta_repriced));
  metric res "core.iterations" "count" (per_search (fun s -> s.Search.iterations));
  metric res "core.probe_win_ratio" "ratio"
    (ratio (total (fun s -> s.Search.probes_won)) (total (fun s -> s.Search.probes_launched)));
  let reused = total (fun s -> s.Search.frags_reused)
  and scheduled = total (fun s -> s.Search.frags_scheduled) in
  metric res "sched.frags_reused" "count" (ratio reused (fi (List.length stats)));
  metric res "sched.frags_scheduled" "count" (ratio scheduled (fi (List.length stats)));
  metric res "sched.frag_reuse_ratio" "ratio" (ratio reused (reused +. scheduled));
  metric res "power.memo_entries" "count" (mean (List.map (fun (_, t) -> fi t.tr_memo) traced));
  metric res "sim.firings" "count" (mean (List.map (fun (_, t) -> fi t.tr_firings) traced));
  metric res "parallel.cpu_per_wall" "ratio"
    (ratio (sum (List.map (fun (o, _) -> o.cpu) traced)) (sum (List.map (fun (o, _) -> o.wall) traced)));
  metric res "parallel.busy_fraction" "ratio"
    (mean (List.map (fun (_, s) -> s.Search.domain_busy_fraction) stats));
  metric res "parallel.steals" "count" (per_search (fun s -> s.Search.steals));
  metric res "trace.overhead" "ratio"
    (ratio (sum (List.map (fun (_, t) -> t.tr_wall) traced)) (sum (List.map (fun (o, _) -> o.wall) traced))
    -. 1.);
  List.iter
    (fun b ->
      let mine = List.filter (fun (n, _) -> n = b) stats in
      let cands = fi (List.fold_left (fun a (_, s) -> a + s.Search.candidates_evaluated) 0 mine) in
      let hits = fi (List.fold_left (fun a (_, s) -> a + s.Search.cache_hits) 0 mine) in
      let ids = List.filter_map (fun (o, _) -> if o.req.design.Design.name = b then Some o.id else None) traced in
      let search_ms =
        List.filter_map
          (fun sp ->
            if sp.Spans.name = "core.search" && List.mem sp.Spans.request ids then
              Some (1000. *. (sp.Spans.t1 -. sp.Spans.t0))
            else None)
          (Spans.spans r)
      in
      metric res ("core.search_ms." ^ b) "ms" (mean search_ms);
      metric res ("core.candidates." ^ b) "count" (ratio cands (fi (List.length mine)));
      metric res ("core.cache_hit_ratio." ^ b) "ratio" (ratio hits cands))
    (List.sort_uniq compare (List.map (fun (_, t) -> fst (List.hd t.tr_stats)) traced))
