(* The [serve] workload: the daemon as users start it ([impact_cli serve]
   with a fresh cache directory), driven by two client connections on two
   threads of this process in a closed loop.

   The timed phase runs one segment per request class, in this order; both
   clients take requests from the segment until it is done, and the next
   segment starts when both have finished, so the daemon's CPU time over a
   segment belongs to that class alone:

   - cold: the first-seen synthesize of gcd, clip and median3.  These write
     every store tier.
   - warm_miss: shifted-laxity requests on programs already seen (front-end
     tier reads plus a search and its fragment writes).
   - coalesced: identical pairs both clients send at once (Flight).
   - warm_hit: seeded exact repeats of the designs answered so far
     (design-tier reads).
   - lint: at 1200 passes, over six small programs from a seeded start per
     client (simulation, estimator context and verification, no store).

   The first three segments have fixed keys and always complete, so every
   run pays the same store writes.  The last two share the rest of the
   measured time equally, with a floor of [light_floor] requests each.  The
   end-to-end rate and CPU time are balanced over the [gated] classes, so
   no traffic share weighs them.  Coalesced pairs are reported per layer
   only: their cost is the leader's search on a small program, whose
   speculative probes make its CPU time vary by a third or more between
   runs of the same requests. *)

open Common
module Solution = Impact_core.Solution
module Fragcache = Impact_sched.Fragcache
module Store = Impact_store.Store

let cold_programs = [ "bench:gcd"; "examples/clip.imp"; "examples/median3.imp" ]

let lint_programs =
  cold_programs @ [ "examples/isqrt.imp"; "examples/window.imp"; "examples/saturate.imp" ]

let lint_passes = 1200
let light_floor = 20

type cls = Cold | Warm_miss | Coalesced | Warm_hit | Lint

let classes = [ Cold; Warm_miss; Coalesced; Warm_hit; Lint ]
let gated = [ Cold; Warm_miss; Warm_hit; Lint ]

let cls_name = function
  | Cold -> "cold"
  | Warm_hit -> "warm_hit"
  | Warm_miss -> "warm_miss"
  | Lint -> "lint"
  | Coalesced -> "coalesced"

type key = { target : string; objective : string; laxity : float }

type req = { cls : cls; key : key }

let request_json r =
  match r.cls with
  | Lint ->
    Wire.Obj
      [ ("op", Wire.Str "lint"); ("target", Wire.Str r.key.target);
        ("passes", Wire.Num (fi lint_passes)) ]
  | _ ->
    Wire.Obj
      [ ("op", Wire.Str "synthesize"); ("target", Wire.Str r.key.target);
        ("objective", Wire.Str r.key.objective); ("laxity", Wire.Num r.key.laxity) ]

let synth cls target objective laxity = { cls; key = { target; objective; laxity } }
let lint target = { cls = Lint; key = { target; objective = ""; laxity = 0. } }

(* The fixed segments.  Each coalesced key is one pair. *)
let gcd, clip, median3 = match cold_programs with [ a; b; c ] -> (a, b, c) | _ -> assert false
let cold = List.map (fun t -> synth Cold t "power" 2.0) cold_programs
let warm_miss = [ synth Warm_miss gcd "power" 2.5; synth Warm_miss median3 "area" 2.0 ]
(* Twenty pairs, first-seen laxities on clip, so the segment is long
   enough to time. *)
let coalesced =
  List.init 20 (fun i ->
      synth Coalesced clip (if i mod 2 = 0 then "area" else "power") (1.45 +. (0.08 *. fi i)))

(* --- Wire client ------------------------------------------------------------ *)

type conn = { ic : in_channel; oc : out_channel }

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () -> { ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
  | exception e ->
    Unix.close fd;
    raise e

let close c = close_out_noerr c.oc

(* One request: send, then read frames until the terminal result. *)
let call c json =
  Wire.write_frame c.oc (Wire.to_string json);
  let rec loop () =
    match Wire.read_frame c.ic with
    | Ok (Some payload) -> (
      match Wire.parse payload with
      | Ok j when Option.bind (Wire.member "event" j) Wire.str = Some "result" -> j
      | Ok _ -> loop ()
      | Error e -> failwith ("bad frame: " ^ e))
    | Ok None -> failwith "connection closed by the daemon"
    | Error e -> failwith ("protocol error: " ^ e)
  in
  loop ()

let op_json op = Wire.Obj [ ("op", Wire.Str op) ]
let num name j = Option.value (Option.bind (Wire.member name j) Wire.num) ~default:nan
let ok j = Option.bind (Wire.member "ok" j) Wire.bool_ = Some true

(* --- Daemon control ------------------------------------------------------------ *)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

type daemon = { pid : int; sock : string; dir : string; out : in_channel }

(* Spawn a daemon on a fresh cache directory and time it until [ping]
   answers.  The daemon prints its "listening" line once the socket
   accepts connections; reading it, rather than polling the socket, keeps
   the measurement free of a polling interval. *)
let start args ~dir =
  rm_rf dir;
  mkdir_p dir;
  let sock = Filename.concat dir "s.sock" in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let t0 = now () in
  let pid =
    Unix.create_process args.cli
      [| args.cli; "serve"; "--socket"; sock; "--cache-dir"; Filename.concat dir "cache" |]
      Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let d = { pid; sock; dir; out = Unix.in_channel_of_descr rd } in
  match
    (match input_line d.out with
    | _ -> ()
    | exception End_of_file -> failwith "serve daemon exited before listening");
    let c = connect sock in
    let answer = call c (op_json "ping") in
    let t = now () -. t0 in
    close c;
    if not (ok answer) then failwith "ping failed";
    t
  with
  | t -> (d, t)
  | exception e ->
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid);
    close_in d.out;
    raise e

let stop d =
  (try
     let c = connect d.sock in
     ignore (call c (op_json "shutdown"));
     close c
   with _ -> ( try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ()));
  ignore (Unix.waitpid [] d.pid);
  close_in d.out;
  rm_rf d.dir

(* --- The closed loop ------------------------------------------------------------- *)

type record = { r : req; latency : float; answer : Wire.json option }

let send c r =
  let t0 = now () in
  let answer = try Some (call c (request_json r)) with Failure _ | Sys_error _ -> None in
  { r; latency = now () -. t0; answer }

type segment = {
  sg_cls : cls;
  records : record list;
  wall : float;
  cpu : float;  (** the daemon's CPU seconds over the segment *)
}

(* One segment: each client takes requests from [next client] until it
   returns [None]. *)
let segment d conns cls next =
  let cpu0 = proc_cpu_s d.pid and t0 = now () in
  let clients =
    List.mapi
      (fun i c ->
        let out = ref [] in
        let rec loop () =
          match next i with
          | Some r ->
            out := send c r :: !out;
            loop ()
          | None -> ()
        in
        (out, Thread.create loop ()))
      conns
  in
  let records = List.concat_map (fun (out, th) -> Thread.join th; List.rev !out) clients in
  { sg_cls = cls; records; wall = now () -. t0; cpu = proc_cpu_s d.pid -. cpu0 }

(* Both clients drain one shared list. *)
let shared_queue reqs =
  let m = Mutex.create () and q = ref reqs in
  fun _ ->
    Mutex.protect m (fun () ->
        match !q with
        | r :: rest ->
          q := rest;
          Some r
        | [] -> None)

(* Each client draws from [draw client] until [until] has passed and the
   segment has at least [light_floor] requests. *)
let timed_draws ~until draw =
  let drawn = Atomic.make 0 in
  fun i ->
    if now () >= until && Atomic.get drawn >= light_floor then None
    else begin
      Atomic.incr drawn;
      Some (draw i)
    end

let answered_keys segments =
  List.concat_map
    (fun sg ->
      List.filter_map
        (fun rc -> match rc.answer with Some j when ok j -> Some rc.r.key | _ -> None)
        sg.records)
    segments
  |> List.sort_uniq compare

let drive args d =
  let conns = [ connect d.sock; connect d.sock ] in
  Fun.protect ~finally:(fun () -> List.iter close conns) @@ fun () ->
  let deadline = now () +. args.seconds in
  let fixed =
    [
      segment d conns Cold (shared_queue cold);
      segment d conns Warm_miss (shared_queue warm_miss);
      (* Both clients walk the same list, so each key is sent by both at
         once: they resynchronise on every pair, as the follower's answer
         arrives with the leader's. *)
      (let pending = Array.make (List.length conns) coalesced in
       segment d conns Coalesced (fun i ->
           match pending.(i) with
           | r :: rest ->
             pending.(i) <- rest;
             Some r
           | [] -> None));
    ]
  in
  let keys = Array.of_list (answered_keys fixed) in
  if keys = [||] then failwith "the daemon answered no synthesize request";
  let rngs = List.init 2 (fun i -> Random.State.make [| args.seed; 43; i |]) |> Array.of_list in
  let half = Float.max 0. ((deadline -. now ()) /. 2.) in
  let hits =
    segment d conns Warm_hit
      (timed_draws ~until:(now () +. half) (fun i ->
           { cls = Warm_hit; key = keys.(Random.State.int rngs.(i) (Array.length keys)) }))
  in
  let lints =
    let next = Array.map (fun rng -> Random.State.int rng (List.length lint_programs)) rngs in
    segment d conns Lint
      (timed_draws ~until:deadline (fun i ->
           next.(i) <- (next.(i) + 1) mod List.length lint_programs;
           lint (List.nth lint_programs next.(i))))
  in
  fixed @ [ hits; lints ]

(* --- Checks and metrics ------------------------------------------------------------ *)

let design_of_answer j = (num "cost" j, num "area" j, num "enc" j, num "vdd" j)
let lint_of_answer j = (num "errors" j, num "warnings" j)

(* Every repeat and coalesced follower must return exactly the first answer
   for its key; lint answers must agree per target. *)
let check_consistency res records =
  let firsts = Hashtbl.create 64 in
  List.iter
    (fun rc ->
      res.attempted <- res.attempted + 1;
      match rc.answer with
      | None ->
        res.failed <- res.failed + 1;
        problem res "%s %s: no answer" (cls_name rc.r.cls) rc.r.key.target
      | Some j when not (ok j) ->
        res.failed <- res.failed + 1;
        problem res "%s %s: refused: %s" (cls_name rc.r.cls) rc.r.key.target
          (Wire.to_string j)
      | Some j ->
        let k, v =
          match rc.r.cls with
          | Lint ->
            let e, w = lint_of_answer j in
            ((rc.r.key.target, "lint", 0.), [ e; w ])
          | _ ->
            let c, a, e, v = design_of_answer j in
            ((rc.r.key.target, rc.r.key.objective, rc.r.key.laxity), [ c; a; e; v ])
        in
        match Hashtbl.find_opt firsts k with
        | None -> Hashtbl.add firsts k v
        | Some v0 when List.for_all2 (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)) v0 v -> ()
        | Some _ ->
          res.failed <- res.failed + 1;
          problem res "%s %s: answer differs from the first answer for its key"
            (cls_name rc.r.cls) rc.r.key.target)
    records

let tier_counter stats ns field =
  match Option.bind (Wire.member "tiers" stats) (Wire.member ns) with
  | Some t -> num field t
  | None -> 0.

let load_design =
  let cache = Hashtbl.create 8 in
  fun ?rec_ target ->
    match Hashtbl.find_opt cache target with
    | Some d -> d
    | None ->
      let load () =
        if String.length target > 6 && String.sub target 0 6 = "bench:" then
          Design.of_bench (String.sub target 6 (String.length target - 6))
        else Design.of_file target
      in
      let d =
        match rec_ with
        | None -> load ()
        | Some r -> Spans.with_span r ~request:0 "lang.elaborate" (fun _ -> load ())
      in
      Hashtbl.add cache target d;
      d

let objective_of = function "area" -> Solution.Minimize_area | _ -> Solution.Minimize_power
let synth_workload (d : Design.t) = d.Design.workload ~seed:1 ~passes:Batch.passes

(* Quality: each distinct answered design's cost relative to the initial
   (parallel, unshared) architecture at the same objective and laxity. *)
let qor records =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun rc ->
      match (rc.r.cls, rc.answer) with
      | Lint, _ | _, None -> ()
      | _, Some j when ok j && not (Hashtbl.mem seen rc.r.key) ->
        let d = load_design rc.r.key.target in
        let env, _ =
          Driver.build_env d.Design.program ~workload:(synth_workload d)
            ~objective:(objective_of rc.r.key.objective) ~laxity:rc.r.key.laxity
        in
        Hashtbl.add seen rc.r.key (num "cost" j /. (Solution.initial env).Solution.cost)
      | _ -> ())
    records;
  geomean (List.of_seq (Hashtbl.to_seq_values seen))

let p50_ms xs = 1000. *. median xs

(* --- Traced replay ------------------------------------------------------------------

   The daemon's store calls happen inside Driver.synthesize, in another
   process.  The traced run therefore replays the answered requests in
   request order through [Driver.synthesize ~store] on a fresh store, with a
   fragment cache whose backing times every frag-tier Store.find and
   Store.put, and recomposes the lint path from its public calls.  Every
   replayed answer must equal the daemon's. *)

let lint_path c (d : Design.t) source =
  let module Diagnostic = Impact_util.Diagnostic in
  let ast = Impact_lang.Parser.parse source in
  let lang = Impact_verify.Verify.run_all (Impact_verify.Verify.input ~name:d.Design.name ~source:ast ()) in
  let program =
    Recompose.span c "lang.elaborate" (fun _ ->
        Impact_lang.Elaborate.program (Impact_lang.Typecheck.check ast))
  in
  let options = { Driver.default_options with clock_ns = 15.; seed = 1 } in
  let workload = d.Design.workload ~seed:1 ~passes:lint_passes in
  let env, _ =
    Recompose.build_env c options { d with Design.program } ~workload
      ~objective:Solution.Minimize_power ~laxity:2.0
  in
  let sol = Recompose.span c "core.initial" (fun _ -> Solution.initial env) in
  let diags = lang @ Recompose.span c "verify.lint" (fun _ -> Solution.diagnostics env sol) in
  ( (fi (Diagnostic.count Diagnostic.Error diags), fi (Diagnostic.count Diagnostic.Warning diags)),
    (Impact_power.Estimate.run env.Solution.est_ctx).Impact_sim.Sim.firings_total )

let source_of target =
  if String.length target > 6 && String.sub target 0 6 = "bench:" then
    (Impact_benchmarks.Suite.find (String.sub target 6 (String.length target - 6)))
      .Impact_benchmarks.Suite.source
  else In_channel.with_open_bin target In_channel.input_all

(* Replays every store-writing request and the first [light_sample] of each
   light class: enough to time the lint path and design-tier reads without
   replaying hundreds of them. *)
let light_sample = 20

let replay res r ~dir records =
  let st = Store.open_store ~dir () in
  let firings = ref [] in
  let records =
    let hits = ref 0 and lints = ref 0 in
    List.filter
      (fun rc ->
        let within n = incr n; !n <= light_sample in
        match rc.r.cls with
        | Warm_hit -> within hits
        | Lint -> within lints
        | Cold | Warm_miss | Coalesced -> true)
      records
  in
  List.iteri
    (fun i rc ->
      match rc.answer with
      | Some j when ok j -> (
        let d = load_design ~rec_:r rc.r.key.target in
        let c = { Recompose.rec_ = r; request = i + 1; parent = -1 } in
        match rc.r.cls with
        | Lint ->
          let got, f =
            Recompose.sub c "op.lint" (fun c -> lint_path c d (source_of rc.r.key.target))
          in
          firings := fi f :: !firings;
          if got <> lint_of_answer j then begin
            res.failed <- res.failed + 1;
            problem res "replay fidelity: lint %s differs from the daemon's" rc.r.key.target
          end
        | _ ->
          let design =
            Recompose.span c "op.synthesize" (fun id ->
                let timed name f = Spans.with_span r ~parent:id ~request:(i + 1) name (fun _ -> f ()) in
                let backing =
                  {
                    Fragcache.bk_find =
                      (fun full ->
                        timed "store.find" (fun () ->
                            try Store.find ~ns:"frag" st (Store.key full) with _ -> None));
                    bk_put =
                      (fun full ~cost_ns payload ->
                        timed "store.put" (fun () ->
                            try Store.put ~ns:"frag" ~cost_ns st (Store.key full) payload
                            with _ -> ()));
                  }
                in
                let cache =
                  Solution.create_cache
                    ~frags:(Fragcache.create ~context:("perfbench|frag|" ^ d.Design.name) ~backing ())
                    ()
                in
                Driver.synthesize ~store:st ~cache d.Design.program ~workload:(synth_workload d)
                  ~objective:(objective_of rc.r.key.objective) ~laxity:rc.r.key.laxity ())
          in
          let s = design.Driver.d_solution in
          let mine = (s.Solution.cost, s.Solution.area, s.Solution.enc, s.Solution.vdd) in
          if mine <> design_of_answer j then begin
            res.failed <- res.failed + 1;
            problem res "replay fidelity: %s %s laxity %g differs from the daemon's"
              rc.r.key.target rc.r.key.objective rc.r.key.laxity
          end)
      | _ -> ())
    records;
  mean !firings

(* Cost of recording one span, for the traced run's overhead estimate. *)
let span_cost () =
  let r = Spans.create () in
  let n = 20_000 in
  let t0 = now () in
  for _ = 1 to n do
    Spans.with_span r ~request:0 "x" ignore
  done;
  (now () -. t0) /. fi n


(* --- The workload ---------------------------------------------------------------- *)

(* Set-up probes: daemon starts on fresh cache directories, each stopped
   right after its ping; with the measured daemon's own start, the median
   of [setup_starts] is [setup_s]. *)
let setup_starts = 21

let run args res =
  (* A daemon that dies mid-request must read as a failed request, not kill
     the client process. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let base = Filename.concat args.work_dir (Printf.sprintf "serve-%d" (Unix.getpid ())) in
  let setups =
    List.init (setup_starts - 1) (fun i ->
        let d, t = start args ~dir:(Filename.concat base (Printf.sprintf "probe%d" i)) in
        stop d;
        t)
  in
  let d, t = start args ~dir:(Filename.concat base "daemon") in
  let segments, stats, rss, pings =
    Fun.protect
      ~finally:(fun () -> stop d)
      (fun () ->
        let pings =
          if args.trace then begin
            let c = connect d.sock in
            let xs = List.init 50 (fun _ -> snd (time (fun () -> call c (op_json "ping")))) in
            close c;
            xs
          end
          else []
        in
        let segments = drive args d in
        let c = connect d.sock in
        let stats = call c (op_json "cache-stats") in
        close c;
        (segments, stats, peak_rss_mb (string_of_int d.pid), pings))
  in
  let records = List.concat_map (fun sg -> sg.records) segments in
  check_consistency res records;
  let frag_writes = tier_counter stats "frag" "writes"
  and design_hits = tier_counter stats "design" "hits" in
  if not (frag_writes > 0. && design_hits > 0.) then begin
    res.failed <- res.failed + 1;
    problem res "store: expected frag writes and design hits, got %g and %g" frag_writes design_hits
  end;
  let answered = List.filter (fun rc -> match rc.answer with Some j -> ok j | None -> false) records in
  let latencies = List.map (fun rc -> rc.latency) answered in
  let pct, tail_s = tail latencies in
  metric res "serve.requests" "count" (fi (List.length records));
  metric res "serve.op_p50_ms" "ms" (p50_ms latencies);
  metric res "serve.op_tail_ms" "ms" (1000. *. tail_s);
  metric res "serve.op_tail_percentile" "%" pct;
  metric res "store.bytes" "bytes" (num "bytes" stats);
  (* Per class: requests per second of the class's segments and the
     daemon's CPU seconds per request in them. *)
  let per_class cls =
    let mine = List.filter (fun sg -> sg.sg_cls = cls) segments in
    let n = fi (List.length (List.concat_map (fun sg -> sg.records) mine)) in
    let total f = sum (List.map f mine) in
    (n /. total (fun sg -> sg.wall), total (fun sg -> sg.cpu) /. n)
  in
  let class_p50 cls =
    p50_ms (List.filter_map (fun rc -> if rc.r.cls = cls then Some rc.latency else None) answered)
  in
  List.iter (fun cls -> metric res ("serve." ^ cls_name cls ^ "_p50_ms") "ms" (class_p50 cls)) classes;
  let figures = List.map (fun cls -> (cls, per_class cls)) classes in
  List.iter
    (fun (cls, (rate, cpu)) ->
      metric res ("serve." ^ cls_name cls ^ "_ops_per_s") "ops/s" rate;
      metric res ("serve." ^ cls_name cls ^ "_cpu_s") "s" cpu)
    figures;
  let rates, cpus = List.split (List.map (fun cls -> List.assoc cls figures) gated) in
  if not args.trace then begin
    metric res "setup_s" "s" (median (t :: setups));
    metric res "ops_per_s" "ops/s" (geomean rates);
    metric res "cpu_s" "s" (geomean cpus);
    metric res "peak_rss_mb" "MiB" rss;
    metric res "qor_geomean" "ratio" (qor answered)
  end
  else begin
    let r = Spans.create () in
    metric res "wire.ping_ms" "ms" (p50_ms pings);
    metric res "parallel.cpu_per_wall" "ratio"
      (ratio (sum (List.map (fun sg -> sg.cpu) segments)) (sum (List.map (fun sg -> sg.wall) segments)));
    List.iter
      (fun ns ->
        List.iter
          (fun f -> metric res (Printf.sprintf "store.%s.%s" ns f) "count" (tier_counter stats ns f))
          [ "hits"; "misses"; "writes" ])
      [ "design"; "frag"; "sim"; "traces"; "lib" ];
    metric res "store.entries" "count" (num "entries" stats);
    metric res "flight.led" "count" (num "flights" stats);
    metric res "flight.coalesced" "count" (num "coalesced" stats);
    let t0 = now () in
    let firings = replay res r ~dir:(Filename.concat base "replay") answered in
    let replay_wall = now () -. t0 in
    Layers.span_ms res r;
    metric res "sim.firings" "count" firings;
    let total name = match Hashtbl.find_opt (Spans.by_name r) name with Some (_, d, _) -> d | None -> 0. in
    metric res "store.put_share" "ratio" (ratio (total "store.put") (total "op.synthesize"));
    (* An estimate: the replay has no untraced twin to compare with, so this
       is the measured cost of recording one span times the spans recorded,
       over the replay's wall time. *)
    metric res "trace.overhead" "ratio" (span_cost () *. fi (Spans.count r) /. replay_wall)
  end;
  rm_rf base
