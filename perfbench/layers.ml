(* Per-layer metrics read from the traced run's spans.  A run reports only
   the layers it exercised; run.py fills in the ones record.json marks as
   not measured on the workload. *)

open Common

(* Span name → metric: self milliseconds per call. *)
let span_metrics =
  [
    ("lang.elaborate", "lang.elaborate_ms");
    ("sim.simulate", "sim.simulate_ms");
    ("power.ctx", "power.ctx_ms");
    ("sched.min_enc", "sched.min_enc_ms");
    ("core.initial", "core.initial_ms");
    ("core.search", "core.search_ms");
    ("power.measure", "power.measure_ms");
    ("store.put", "store.put_ms");
    ("store.find", "store.find_ms");
    ("verify.lint", "verify.lint_ms");
  ]

let span_ms res r =
  let tab = Spans.by_name r in
  List.iter
    (fun (span, name) ->
      match Hashtbl.find_opt tab span with
      | Some (n, _, self) -> metric res name "ms" (1000. *. self /. fi n)
      | None -> ())
    span_metrics

