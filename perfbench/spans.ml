(* An in-memory span recorder for the traced run.

   Spans are recorded by the benchmark around its calls into each layer's
   public functions; nothing inside the library is instrumented.  Recording
   is domain-safe (sweep points run on the worker pool) and the spans are
   kept in memory until the run ends.  A layer's self time is the span's
   duration minus the union of its children's intervals. *)

type span = {
  id : int;
  parent : int;  (** [-1] for a root span *)
  name : string;
  request : int;
  t0 : float;
  t1 : float;
}

type t = { lock : Mutex.t; mutable spans : span list; next : int Atomic.t }

let create () = { lock = Mutex.create (); spans = []; next = Atomic.make 0 }
let now = Unix.gettimeofday

(* [with_span r ~parent ~request name f] runs [f id] inside a span whose id
   children use as their [parent]. *)
let with_span r ?(parent = -1) ~request name f =
  let id = Atomic.fetch_and_add r.next 1 in
  let t0 = now () in
  let finish () =
    let s = { id; parent; name; request; t0; t1 = now () } in
    Mutex.protect r.lock (fun () -> r.spans <- s :: r.spans)
  in
  Fun.protect ~finally:finish (fun () -> f id)

let spans r = Mutex.protect r.lock (fun () -> List.rev r.spans)
let count r = Mutex.protect r.lock (fun () -> List.length r.spans)

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0., None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* Per span name: (calls, total duration, total self time), in seconds. *)
let by_name r =
  let all = spans r in
  let children = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add children s.parent (s.t0, s.t1)) all;
  let acc = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self =
        s.t1 -. s.t0 -. covered ~lo:s.t0 ~hi:s.t1 (Hashtbl.find_all children s.id)
      in
      let n, d, sf = Option.value (Hashtbl.find_opt acc s.name) ~default:(0, 0., 0.) in
      Hashtbl.replace acc s.name (n + 1, d +. (s.t1 -. s.t0), sf +. self))
    all;
  acc

(* Chrome trace-event JSON of every span (one complete event each), so a
   traced run can be opened in Perfetto. *)
let to_trace_events r =
  let module W = Impact_store.Wire in
  let all = spans r in
  let origin = List.fold_left (fun m s -> Float.min m s.t0) infinity all in
  W.Arr
    (List.map
       (fun s ->
         W.Obj
           [
             ("name", W.Str s.name);
             ("ph", W.Str "X");
             ("pid", W.Num 1.);
             ("tid", W.Num (float_of_int s.request));
             ("ts", W.Num (Float.round ((s.t0 -. origin) *. 1e6)));
             ("dur", W.Num (Float.round ((s.t1 -. s.t0) *. 1e6)));
             ( "args",
               W.Obj [ ("id", W.Num (float_of_int s.id)); ("parent", W.Num (float_of_int s.parent)) ] );
           ])
       all)
