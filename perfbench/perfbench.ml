(* The repository benchmark's engine.  [run.py] builds this executable and
   calls it once per run; see run.py for the command line.  The last line
   of standard output is one JSON object with every metric this run
   measured, the attempted/failed counts and the problems found. *)

open Common

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload synth|sweep|serve --seed N --seconds S [--trace 0|1] \
     [--cli PATH] [--work-dir DIR] [--ablate FIELD=VALUE] [--trace-out FILE]";
  exit 2

let parse_args () =
  let a =
    ref
      {
        workload = "";
        seed = 1;
        seconds = 10.;
        trace = false;
        cli = "";
        work_dir = ".bench_build/work";
        ablate = None;
        trace_out = None;
        setup_probe = false;
      }
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> a := { !a with workload = v }; go rest
    | "--seed" :: v :: rest -> a := { !a with seed = int_of_string v }; go rest
    | "--seconds" :: v :: rest -> a := { !a with seconds = float_of_string v }; go rest
    | "--trace" :: v :: rest -> a := { !a with trace = v = "1" }; go rest
    | "--cli" :: v :: rest -> a := { !a with cli = v }; go rest
    | "--work-dir" :: v :: rest -> a := { !a with work_dir = v }; go rest
    | "--trace-out" :: v :: rest -> a := { !a with trace_out = Some v }; go rest
    | "--setup-probe" :: rest -> a := { !a with setup_probe = true }; go rest
    | "--ablate" :: v :: rest -> (
      match String.index_opt v '=' with
      | Some i ->
        a := { !a with ablate = Some (String.sub v 0 i, String.sub v (i + 1) (String.length v - i - 1)) };
        go rest
      | None -> usage ())
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  !a

(* Set-up time: the median over [n] fresh processes of the time from spawn
   until the process reports it could start its first timed operation. *)
let setup_probes ~n =
  let argv = Array.append Sys.argv [| "--setup-probe" |] in
  List.init n (fun _ ->
      let rd, wr = Unix.pipe ~cloexec:true () in
      let t0 = now () in
      let pid = Unix.create_process Sys.executable_name argv Unix.stdin wr Unix.stderr in
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let line = try input_line ic with End_of_file -> "" in
      let t = now () -. t0 in
      close_in ic;
      let _, status = Unix.waitpid [] pid in
      if line <> "ready" || status <> Unix.WEXITED 0 then
        failwith "set-up probe failed";
      t)

let emit res ~correct =
  let metrics =
    List.rev_map
      (fun (name, value, unit) ->
        (name, Wire.Obj [ ("value", Wire.Num value); ("unit", Wire.Str unit) ]))
      res.metrics
  in
  print_endline
    (Wire.to_string
       (Wire.Obj
          [
            ("correct", Wire.Bool correct);
            ("attempted", Wire.Num (fi res.attempted));
            ("failed", Wire.Num (fi res.failed));
            ("metrics", Wire.Obj metrics);
            ("problems", Wire.Arr (List.rev_map (fun p -> Wire.Str p) res.problems));
          ]))

let batch args kind =
  let res = new_result () in
  if args.setup_probe then begin
    ignore (Batch.setup args kind);
    print_endline "ready";
    exit 0
  end;
  let setup = if args.trace then [] else setup_probes ~n:11 in
  let rec_ = if args.trace then Some (Spans.create ()) else None in
  let designs = Batch.setup ?rec_ args kind in
  let cpu0 = self_cpu_s () and t0 = now () in
  let ops = Batch.timed ?rec_ args kind designs res in
  let timed_wall = now () -. t0 and timed_cpu = self_cpu_s () -. cpu0 in
  let wrong, qor = Batch.check ?rec_ res ops in
  metric res "wrong_outputs" "count" (fi wrong);
  metric res "error_rate" "fraction" (ratio (fi res.failed) (fi (max 1 res.attempted)));
  metric res "timed_wall_s" "s" timed_wall;
  metric res "timed_cpu_s" "s" timed_cpu;
  (match rec_ with
  | None ->
    metric res "setup_s" "s" (median setup);
    Batch.end_to_end res ops ~qor
  | Some r ->
    Batch.per_layer res r ops;
    Option.iter
      (fun path ->
        Out_channel.with_open_bin path (fun oc ->
            output_string oc (Wire.to_string (Spans.to_trace_events r))))
      args.trace_out);
  emit res ~correct:(res.failed = 0 && ops <> [])

let () =
  let args = parse_args () in
  (match ablated_options args Driver.default_options with
  | _ -> ()
  | exception Failure msg ->
    prerr_endline msg;
    exit 2);
  match args.workload with
  | "synth" -> batch args Batch.Synth
  | "sweep" -> batch args Batch.Sweep
  | "serve" ->
    if args.cli = "" then usage ();
    let res = new_result () in
    Serve.run args res;
    metric res "error_rate" "fraction" (ratio (fi res.failed) (fi (max 1 res.attempted)));
    emit res ~correct:(res.failed = 0)
  | _ -> usage ()
