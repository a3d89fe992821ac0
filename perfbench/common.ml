(* Shared plumbing: command-line options, statistics, process probes and
   the metric/result record every workload fills in. *)

module Wire = Impact_store.Wire
module Driver = Impact_core.Driver

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  cli : string;  (** the built [impact_cli] executable (serve only) *)
  work_dir : string;  (** scratch space inside the checkout *)
  ablate : (string * string) option;  (** one [Driver.options] override *)
  trace_out : string option;  (** Chrome trace-event file of the spans *)
  setup_probe : bool;  (** run set-up only, print "ready", exit *)
}

(* --- Statistics ------------------------------------------------------------ *)

let sorted xs = List.sort Float.compare xs

let quantile xs q =
  match sorted xs with
  | [] -> 0.
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float (Float.floor pos) in
    let frac = pos -. float_of_int i in
    if i + 1 >= n then a.(n - 1) else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5
let mean = function [] -> 0. | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)
let sum = List.fold_left ( +. ) 0.

let geomean = function
  | [] -> 0.
  | xs -> exp (mean (List.map log xs))

(* The highest percentile with at least ten samples beyond it, as
   (percentile, value): with [n] samples that is the order statistic at
   rank [n - 11] (0-based) — the value with ten larger ones. *)
let tail xs =
  let n = List.length xs in
  if n < 11 then (0., List.fold_left Float.max 0. xs)
  else
    let a = Array.of_list (sorted xs) in
    let rank = n - 11 in
    (100. *. float_of_int (rank + 1) /. float_of_int n, a.(rank))

let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int

(* --- Process probes (Linux /proc) --------------------------------------------- *)

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        let rec go acc =
          match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc
        in
        go [])

(* Peak resident set (VmHWM) of [pid] in MiB. *)
let peak_rss_mb pid =
  List.find_map
    (fun l ->
      match String.split_on_char ':' l with
      | [ "VmHWM"; v ] -> (
        match String.split_on_char ' ' (String.trim v) with
        | kb :: _ -> Some (float_of_string kb /. 1024.)
        | [] -> None)
      | _ -> None)
    (read_lines (Printf.sprintf "/proc/%s/status" pid))
  |> Option.value ~default:0.

(* Resets this process's peak-RSS mark (VmHWM) to its current RSS. *)
let reset_peak_rss () =
  try Out_channel.with_open_bin "/proc/self/clear_refs" (fun oc -> output_string oc "5")
  with Sys_error _ -> ()

(* User + system CPU seconds of another process, from /proc/PID/stat. *)
let proc_cpu_s pid =
  match read_lines (Printf.sprintf "/proc/%d/stat" pid) with
  | line :: _ -> (
    (* Fields after the parenthesised command name; utime/stime are the
       12th and 13th of those. *)
    let rest =
      let i = String.rindex line ')' in
      String.sub line (i + 2) (String.length line - i - 2)
    in
    match String.split_on_char ' ' rest with
    | fields when List.length fields > 13 ->
      let tick = 100. in
      (float_of_string (List.nth fields 11) +. float_of_string (List.nth fields 12)) /. tick
    | _ -> 0.)
  | [] -> 0.

let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* --- Results ------------------------------------------------------------------ *)

type result = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;  (** human-readable, most recent first *)
  mutable metrics : (string * float * string) list;  (** name, value, unit *)
}

let new_result () = { attempted = 0; failed = 0; problems = []; metrics = [] }
let metric r name unit value = r.metrics <- (name, value, unit) :: r.metrics

let problem r fmt =
  Printf.ksprintf (fun s -> r.problems <- s :: r.problems) fmt

(* --- Options ------------------------------------------------------------------ *)

let ablated_options (args : args) (base : Driver.options) =
  match args.ablate with
  | None -> base
  | Some (field, value) -> (
    let bool_of v =
      match v with
      | "true" | "1" | "on" -> true
      | "false" | "0" | "off" -> false
      | _ -> failwith (Printf.sprintf "--ablate %s expects a boolean, got %s" field v)
    in
    let int_of v =
      match int_of_string_opt v with
      | Some n when n >= 1 -> n
      | _ -> failwith (Printf.sprintf "--ablate %s expects a positive integer, got %s" field v)
    in
    match field with
    | "eval_cache" -> { base with Driver.eval_cache = bool_of value }
    | "delta_reprice" -> { base with Driver.delta_reprice = bool_of value }
    | "probes" -> { base with Driver.probes = int_of value }
    | "jobs" -> { base with Driver.jobs = int_of value }
    | _ ->
      failwith
        (Printf.sprintf "--ablate: unknown field %s (eval_cache, delta_reprice, probes, jobs)"
           field))
