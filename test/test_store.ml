(* The persistent content-addressed store: envelope round-trips, cost-aware
   eviction under the logical clock, corruption resilience (truncation, bit
   flips, version skew all read as misses, never crashes), the single-flight
   scheduler under thread races, and — the contract the layer above depends
   on — warm Driver answers bit-identical to the cold searches that
   populated the store, across every benchmark and every tier. *)

module Store = Impact_store.Store
module Wire = Impact_store.Wire
module Suite = Impact_benchmarks.Suite
module Stg = Impact_sched.Stg
module Estimate = Impact_power.Estimate
module Solution = Impact_core.Solution
module Moves = Impact_core.Moves
module Search = Impact_core.Search
module Driver = Impact_core.Driver

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter
      (fun name -> rm_rf (Filename.concat path name))
      (try Sys.readdir path with Sys_error _ -> [||]);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "impact-test-store.%d.%d" (Unix.getpid ()) !n)
    in
    rm_rf d;
    d

let with_dir f =
  let d = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf d) (fun () -> f d)

(* The on-disk path of a content key's object, mirroring the store layout
   (namespace directory, then two-char fan-out under objects/) — used to
   corrupt objects behind the API's back.  [object_path] hashes a raw name
   first. *)
let object_path_of_key ?(ns = Store.default_ns) dir ck =
  List.fold_left Filename.concat dir [ "objects"; ns; String.sub ck 0 2; ck ]

let object_path ?ns dir name = object_path_of_key ?ns dir (Store.key name)

let tier name st =
  match List.assoc_opt name st.Store.st_tiers with
  | Some t -> t
  | None -> Alcotest.failf "no %S tier in stats" name

(* --- store primitives ----------------------------------------------------- *)

(* [find]/[put] take content keys (hex digests); [k] is the canonical-key
   step the Driver layer performs. *)
let k = Store.key

let test_roundtrip () =
  with_dir (fun d ->
      let s = Store.open_store ~dir:d () in
      check_bool "fresh store misses" true (Store.find s (k "k1") = None);
      Store.put s (k "k1") "payload one";
      Store.put s (k "k2") (String.make 4096 '\x00');
      check_bool "hit k1" true (Store.find s (k "k1") = Some "payload one");
      check_bool "hit k2" true
        (Store.find s (k "k2") = Some (String.make 4096 '\x00'));
      (* A second handle on the same directory sees the same objects — the
         persistence is real, not just the memory layer. *)
      let s2 = Store.open_store ~dir:d () in
      check_bool "second handle hit" true (Store.find s2 (k "k1") = Some "payload one");
      let st = Store.stats s in
      check_int "entries" 2 st.Store.st_entries;
      check_int "writes" 2 st.Store.st_writes;
      check_int "hits" 2 st.Store.st_hits;
      check_int "misses" 1 st.Store.st_misses;
      check_bool "bytes counted" true (st.Store.st_bytes > 4096))

let test_clear_gc () =
  with_dir (fun d ->
      let s = Store.open_store ~dir:d () in
      for i = 1 to 8 do
        Store.put s (k (Printf.sprintf "k%d" i)) (String.make 1000 (Char.chr (64 + i)))
      done;
      check_int "gc to cap evicts" 6 (Store.gc ~max_bytes:2100 s);
      let st = Store.stats s in
      check_int "entries after gc" 2 st.Store.st_entries;
      check_bool "fits cap" true (st.Store.st_bytes <= 2100);
      check_int "clear removes the rest" 2 (Store.clear s);
      check_int "empty" 0 (Store.stats s).Store.st_entries;
      check_bool "cleared key misses" true (Store.find s (k "k8") = None))

let test_clock_eviction () =
  with_dir (fun d ->
      (* Cap fits roughly two objects; equal (default) recompute costs, so
         eviction order is purely the logical clock — insertion order here,
         with no dependence on filesystem mtime granularity. *)
      let s = Store.open_store ~dir:d ~max_bytes:2500 () in
      Store.put s (k "a") (String.make 1000 'a');
      Store.put s (k "b") (String.make 1000 'b');
      Store.put s (k "c") (String.make 1000 'c');
      let st = Store.stats s in
      check_bool "evicted down to cap" true (st.Store.st_bytes <= 2500);
      check_bool "oldest object evicted" true
        (not (Sys.file_exists (object_path d "a")));
      check_bool "newest object kept" true (Sys.file_exists (object_path d "c")))

let test_hit_refreshes_clock () =
  with_dir (fun d ->
      (* A hit rewrites the envelope's clock word in place, so the
         recently-read [a] outlives the never-read [b] — and the refresh
         survives a handle boundary because the clock is persisted. *)
      let s = Store.open_store ~dir:d ~max_bytes:2500 () in
      Store.put s (k "a") (String.make 1000 'a');
      Store.put s (k "b") (String.make 1000 'b');
      let s2 = Store.open_store ~dir:d ~max_bytes:2500 () in
      check_bool "reread hits" true (Store.find s2 (k "a") = Some (String.make 1000 'a'));
      Store.put s2 (k "c") (String.make 1000 'c');
      check_bool "recently hit object kept" true (Sys.file_exists (object_path d "a"));
      check_bool "stale object evicted" true (not (Sys.file_exists (object_path d "b"))))

(* --- incremental eviction -------------------------------------------------- *)

(* An independent walk of the objects directory: (content key, size) of
   every object on disk, all namespaces. *)
let disk_objects dir =
  let acc = ref [] in
  let rec walk path =
    match Unix.lstat path with
    | exception Unix.Unix_error _ -> ()
    | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun n -> walk (Filename.concat path n)) (Sys.readdir path)
    | { Unix.st_kind = Unix.S_REG; st_size; _ } ->
      acc := (Filename.basename path, st_size) :: !acc
    | _ -> ()
  in
  walk (Filename.concat dir "objects");
  List.sort compare !acc

let disk_bytes dir = List.fold_left (fun n (_, b) -> n + b) 0 (disk_objects dir)

(* Magic (12) + clock (8) + cost (8) + digest (16). *)
let envelope_bytes = 44

type store_op = Put of int * int * int | Find of int | Gc of int

let show_op = function
  | Put (i, n, c) -> Printf.sprintf "put k%d %dB cost %d" i n c
  | Find i -> Printf.sprintf "find k%d" i
  | Gc m -> Printf.sprintf "gc %d" m

(* Random put/find/gc sequences on a small cap against a model of the
   full-scan policy: after every put the disk fits the cap, and after
   every put and gc the surviving objects are exactly the ones the model
   keeps when it ranks everything by cost per byte, then clock, and evicts
   from the bottom until the total fits.  The model's clock is the order
   of puts and hits, which is all the store's ticks encode. *)
let prop_incremental_eviction =
  let cap = 3000 in
  let op =
    QCheck.Gen.(
      frequency
        [
          ( 5,
            map3
              (fun i n c -> Put (i, n, c))
              (int_bound 7) (int_bound 1200)
              (oneofl [ 0; 0; 1_000; 40_000; 2_000_000 ]) );
          (3, map (fun i -> Find i) (int_bound 7));
          (1, map (fun m -> Gc m) (int_range 800 cap));
        ])
  in
  QCheck.Test.make ~count:60 ~name:"store: incremental eviction == full-scan policy"
    (QCheck.make ~print:QCheck.Print.(list show_op) QCheck.Gen.(list_size (int_range 1 60) op))
    (fun ops ->
      with_dir (fun d ->
          let s = Store.open_store ~dir:d ~max_bytes:cap ~mem_capacity:4 () in
          (* key index -> (payload, size, cost, clock) *)
          let model = Hashtbl.create 8 in
          let tick = ref 0 in
          let next () =
            incr tick;
            !tick
          in
          let evict_model limit =
            let objs =
              Hashtbl.fold
                (fun i (_, size, cost, clock) acc ->
                  ((float_of_int cost /. float_of_int size, clock), i, size) :: acc)
                model []
              |> List.sort compare
            in
            let total = ref (List.fold_left (fun n (_, _, b) -> n + b) 0 objs) in
            List.iter
              (fun (_, i, size) ->
                if !total > limit then begin
                  Hashtbl.remove model i;
                  total := !total - size
                end)
              objs
          in
          let agree what =
            let expected =
              Hashtbl.fold
                (fun i (_, size, _, _) acc -> (k (string_of_int i), size) :: acc)
                model []
              |> List.sort compare
            in
            if disk_objects d <> expected then
              QCheck.Test.fail_reportf "%s: survivors differ" what
          in
          List.iter
            (fun o ->
              match o with
              | Put (i, n, cost) ->
                let payload = String.make n (Char.chr (97 + i)) ^ string_of_int !tick in
                Store.put s ~cost_ns:cost (k (string_of_int i)) payload;
                Hashtbl.replace model i
                  (payload, envelope_bytes + String.length payload, cost, next ());
                evict_model cap;
                if disk_bytes d > cap then
                  QCheck.Test.fail_reportf "%s: over the cap" (show_op o);
                agree (show_op o)
              | Find i -> (
                let got = Store.find s (k (string_of_int i)) in
                match Hashtbl.find_opt model i with
                | Some (payload, size, cost, _) ->
                  if got <> Some payload then
                    QCheck.Test.fail_reportf "%s: wrong hit" (show_op o);
                  Hashtbl.replace model i (payload, size, cost, next ())
                | None ->
                  if got <> None then QCheck.Test.fail_reportf "%s: stale hit" (show_op o))
              | Gc m ->
                ignore (Store.gc ~max_bytes:m s);
                evict_model m;
                agree (show_op o))
            ops;
          true))

(* A handle's tracked total counts an overwrite once, and other writers'
   bytes from its next scan on.  [s2] writes behind [s1]'s back with a
   large cap, so only a scan by [s1] can evict them. *)
let test_tracked_total () =
  with_dir (fun d ->
      let obj = envelope_bytes + 1000 in
      let cap = (5 * obj) / 2 in
      let s1 = Store.open_store ~dir:d ~max_bytes:cap () in
      Store.put s1 (k "a") (String.make 1000 'a');
      let s2 = Store.open_store ~dir:d () in
      Store.put s2 (k "b") (String.make 1000 'b');
      Store.put s2 (k "c") (String.make 1000 'c');
      (* Tracked by [s1]: [a] alone, however often it is overwritten; a
         double count would pass the cap and scan, evicting [b]. *)
      for _ = 1 to 5 do
        Store.put s1 (k "a") (String.make 1000 'a')
      done;
      check_int "overwrites evict nothing" (3 * obj) (disk_bytes d);
      Store.put s1 (k "d") (String.make 1000 'd');
      check_int "other writers' bytes unseen until a scan" (4 * obj) (disk_bytes d);
      Store.put s1 (k "e") (String.make 1000 'e');
      check_bool "the next scan counts them" true (disk_bytes d <= cap);
      check_int "and evicts down to the cap" 2 (List.length (disk_objects d)))

(* The clock word of an object's envelope. *)
let clock_of path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> Int64.to_int (String.get_int64_be (really_input_string ic 20) 12))

(* Ticks are reserved in blocks; a handle dropped without any shutdown after
   more than one block still leaves a ceiling above every tick it issued, so
   the next handle's hit outranks all of them. *)
let test_clock_blocks () =
  with_dir (fun d ->
      let s1 = Store.open_store ~dir:d () in
      let names = List.init 4 (Printf.sprintf "n%d") in
      List.iter (fun n -> Store.put s1 (k n) n) names;
      for i = 1 to 1500 do
        ignore (Store.find s1 (k (List.nth names (i mod 4))))
      done;
      let clocks () = List.map (fun n -> (n, clock_of (object_path d n))) names in
      let oldest, _ =
        List.fold_left (fun (n, c) (n', c') -> if c' < c then (n', c') else (n, c))
          ("", max_int) (clocks ())
      in
      check_bool "first handle passed one block" true
        (List.exists (fun (_, c) -> c > 1024) (clocks ()));
      let s2 = Store.open_store ~dir:d () in
      check_bool "second handle hits" true (Store.find s2 (k oldest) = Some oldest);
      let refreshed = clock_of (object_path d oldest) in
      List.iter
        (fun (n, c) ->
          if n <> oldest then
            check_bool ("second handle's hit outranks " ^ n) true (refreshed > c))
        (clocks ()))

let test_cost_aware_eviction () =
  with_dir (fun d ->
      (* [a] is the oldest but was expensive to recompute; ranking by
         recompute cost per byte evicts the cheap [b] instead, even though
         mtime/clock LRU would have chosen [a]. *)
      let s = Store.open_store ~dir:d ~max_bytes:2500 () in
      Store.put s ~cost_ns:1_000_000_000 (k "a") (String.make 1000 'a');
      Store.put s (k "b") (String.make 1000 'b');
      Store.put s (k "c") (String.make 1000 'c');
      check_bool "expensive old object kept" true (Sys.file_exists (object_path d "a"));
      check_bool "cheap object evicted" true (not (Sys.file_exists (object_path d "b")));
      check_bool "fits cap" true ((Store.stats s).Store.st_bytes <= 2500))

let test_tiers () =
  with_dir (fun d ->
      let s = Store.open_store ~dir:d () in
      (* The same content key names different objects in different tiers. *)
      Store.put s ~ns:"sim" (k "x") "sim payload";
      Store.put s (k "x") "design payload";
      check_bool "namespaces are distinct" true
        (Store.find s ~ns:"sim" (k "x") = Some "sim payload"
        && Store.find s (k "x") = Some "design payload");
      check_bool "sim-only key misses in design" true (Store.find s (k "y") = None);
      let st = Store.stats s in
      check_int "sim entries" 1 (tier "sim" st).Store.ts_entries;
      check_int "sim hits" 1 (tier "sim" st).Store.ts_hits;
      check_int "sim writes" 1 (tier "sim" st).Store.ts_writes;
      check_int "design entries" 1 (tier "design" st).Store.ts_entries;
      check_int "design misses" 1 (tier "design" st).Store.ts_misses;
      check_bool "tier bytes counted" true ((tier "sim" st).Store.ts_bytes > 0);
      (* A fresh handle discovers the tiers from the disk layout. *)
      let st2 = Store.stats (Store.open_store ~dir:d ()) in
      check_int "tiers discovered" 2 (List.length st2.Store.st_tiers);
      (* Namespaces become directory names; reject anything that could
         escape the layout. *)
      check_bool "invalid namespace rejected" true
        (match Store.put s ~ns:"../evil" (k "x") "p" with
        | exception Invalid_argument _ -> true
        | () -> false))

let test_human_bytes () =
  check_string "bytes" "512 B" (Store.human_bytes 512);
  check_string "kib" "65.4 KiB" (Store.human_bytes 66969);
  check_string "mib" "256.0 MiB" (Store.human_bytes (256 * 1024 * 1024));
  check_string "zero" "0 B" (Store.human_bytes 0)

(* --- corruption ----------------------------------------------------------- *)

let corrupt path f =
  let ic = open_in_bin path in
  let raw = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let raw' = f (Bytes.of_string raw) in
  let oc = open_out_bin path in
  output_bytes oc raw';
  close_out oc

let test_corruption () =
  let damage =
    [
      ("truncated", fun b -> Bytes.sub b 0 (Bytes.length b / 2));
      ("empty", fun _ -> Bytes.create 0);
      ( "flipped payload bit",
        fun b ->
          let i = Bytes.length b - 3 in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
          b );
      ( "flipped checksum bit",
        fun b ->
          (* Byte 30 is inside the 16-byte payload digest (offset 28). *)
          Bytes.set b 30 (Char.chr (Char.code (Bytes.get b 30) lxor 0x80));
          b );
      ( "version skew",
        fun b ->
          (* Last magic byte is the format version. *)
          Bytes.set b 11 '\xff';
          b );
      ("garbage", fun _ -> Bytes.of_string "not an impact store object");
    ]
  in
  (* The clock and cost words are deliberately outside the checksummed
     region (a hit refreshes the clock in place without re-checksumming),
     so damaging them must NOT read as corruption. *)
  with_dir (fun d ->
      let s = Store.open_store ~dir:d () in
      Store.put s (k "victim") "precious payload";
      corrupt (object_path d "victim") (fun b ->
          Bytes.set b 14 '\x7f';
          Bytes.set b 22 '\x7f';
          b);
      let s2 = Store.open_store ~dir:d () in
      check_bool "clock/cost damage still hits" true
        (Store.find s2 (k "victim") = Some "precious payload"));
  List.iter
    (fun (name, f) ->
      with_dir (fun d ->
          let s = Store.open_store ~dir:d () in
          Store.put s (k "victim") "precious payload";
          let path = object_path d "victim" in
          corrupt path f;
          (* A fresh handle, so the memory layer cannot mask the damage. *)
          let s2 = Store.open_store ~dir:d () in
          check_bool (name ^ " reads as miss") true (Store.find s2 (k "victim") = None);
          check_bool (name ^ " object removed") true (not (Sys.file_exists path));
          (* The store stays usable: the overwrite repairs the entry. *)
          Store.put s2 (k "victim") "precious payload";
          check_bool (name ^ " rewrite hits") true
            (Store.find s2 (k "victim") = Some "precious payload")))
    damage

(* --- wire JSON ------------------------------------------------------------ *)

let test_wire_json () =
  let rt s =
    match Wire.parse s with
    | Ok j -> Wire.to_string j
    | Error e -> Alcotest.failf "parse %s: %s" s e
  in
  check_string "object" {|{"op":"ping","id":3}|} (rt {| { "op" : "ping", "id": 3 } |});
  check_string "escapes" {|{"s":"a\"b\\c\nd"}|} (rt {|{"s":"a\"b\\c\nd"}|});
  check_string "numbers" {|[1,-2.5,0.125,1e+30]|} (rt "[1, -2.5, 0.125, 1e30]");
  check_string "atoms" {|[true,false,null]|} (rt "[true, false, null]");
  check_bool "trailing junk rejected" true
    (match Wire.parse "{} junk" with Error _ -> true | Ok _ -> false);
  check_bool "unterminated rejected" true
    (match Wire.parse {|{"a": 1|} with Error _ -> true | Ok _ -> false);
  (* Frames: length prefix + payload round-trips through a pipe. *)
  let r, w = Unix.pipe () in
  let oc = Unix.out_channel_of_descr w and ic = Unix.in_channel_of_descr r in
  Wire.write_frame oc "hello frames";
  close_out oc;
  (match Wire.read_frame ic with
  | Ok (Some s) -> check_string "frame payload" "hello frames" s
  | Ok None -> Alcotest.fail "unexpected EOF"
  | Error e -> Alcotest.fail e);
  (match Wire.read_frame ic with
  | Ok None -> ()
  | Ok (Some _) -> Alcotest.fail "expected EOF"
  | Error e -> Alcotest.fail e);
  close_in ic

(* --- warm Driver answers are bit-identical to cold ------------------------ *)

(* Small but real search options: a few iterations, restructuring on, so
   the persisted entry carries non-trivial moves and restructured ports. *)
let small_options =
  {
    Driver.default_options with
    depth = 2;
    max_candidates = 6;
    max_iterations = 3;
    probes = 2;
  }

let ledger_terms d =
  match d.Driver.d_solution.Solution.ledger with
  | None -> []
  | Some l -> List.sort compare (Estimate.ledger_terms l)

let design_fingerprint d =
  ( d.Driver.d_solution.Solution.cost,
    d.Driver.d_solution.Solution.area,
    d.Driver.d_solution.Solution.enc,
    d.Driver.d_solution.Solution.vdd,
    d.Driver.d_enc_min,
    Stg.signature d.Driver.d_solution.Solution.stg,
    List.map Moves.describe d.Driver.d_search.Search.moves_applied,
    ledger_terms d )

let test_warm_identity () =
  List.iter
    (fun bench ->
      with_dir (fun d ->
          let store = Store.open_store ~dir:d () in
          let prog = Suite.program bench in
          let workload = bench.Suite.workload ~seed:7 ~passes:10 in
          let synth () =
            Driver.synthesize ~options:small_options ~store prog ~workload
              ~objective:Solution.Minimize_power ~laxity:2.0 ()
          in
          let cold = synth () in
          let st = Store.stats store in
          let name = bench.Suite.bench_name in
          (* One cold search populates every tier exactly once. *)
          check_int (name ^ " cold design write") 1 (tier "design" st).Store.ts_writes;
          check_int (name ^ " cold sim write") 1 (tier "sim" st).Store.ts_writes;
          check_int (name ^ " cold traces write") 1 (tier "traces" st).Store.ts_writes;
          let warm = synth () in
          let st' = Store.stats store in
          check_bool (name ^ " warm design hit") true
            ((tier "design" st').Store.ts_hits > (tier "design" st).Store.ts_hits);
          check_bool (name ^ " warm sim hit") true
            ((tier "sim" st').Store.ts_hits > (tier "sim" st).Store.ts_hits);
          check_int (name ^ " warm writes nothing new") 1
            (tier "design" st').Store.ts_writes;
          check_bool
            (bench.Suite.bench_name ^ " warm bit-identical")
            true
            (design_fingerprint warm = design_fingerprint cold)))
    Suite.all

let test_warm_sweep_identity () =
  with_dir (fun d ->
      let store = Store.open_store ~dir:d () in
      let bench = Suite.gcd in
      let prog = Suite.program bench in
      let workload = bench.Suite.workload ~seed:7 ~passes:10 in
      let laxities = [ 1.0; 2.0; 3.0 ] in
      let sweep () =
        Driver.figure13 ~options:small_options ~store prog ~workload ~laxities
      in
      let cold = sweep () in
      let before = (Store.stats store).Store.st_hits in
      let warm = sweep () in
      check_bool "sweep warm hit" true ((Store.stats store).Store.st_hits > before);
      check_bool "base identical" true
        (warm.Driver.sw_base_power = cold.Driver.sw_base_power
        && warm.Driver.sw_base_area = cold.Driver.sw_base_area);
      check_int "point count" (List.length cold.Driver.sw_points)
        (List.length warm.Driver.sw_points);
      List.iter2
        (fun p q ->
          check_bool
            (Printf.sprintf "point %g identical" p.Driver.sp_laxity)
            true
            (p.Driver.sp_laxity = q.Driver.sp_laxity
            && p.Driver.sp_a_power = q.Driver.sp_a_power
            && p.Driver.sp_i_power = q.Driver.sp_i_power
            && p.Driver.sp_i_area = q.Driver.sp_i_area
            && p.Driver.sp_a_vdd = q.Driver.sp_a_vdd
            && p.Driver.sp_i_vdd = q.Driver.sp_i_vdd
            && design_fingerprint p.Driver.sp_area_design
               = design_fingerprint q.Driver.sp_area_design
            && design_fingerprint p.Driver.sp_power_design
               = design_fingerprint q.Driver.sp_power_design))
        cold.Driver.sw_points warm.Driver.sw_points)

(* Copy a store object's bytes (a valid envelope) to another key's path. *)
let copy_object ~src ~dst =
  let ic = open_in_bin src in
  let raw = really_input_string ic (in_channel_length ic) in
  close_in ic;
  (try Unix.mkdir (Filename.dirname dst) 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let oc = open_out_bin dst in
  output_string oc raw;
  close_out oc

(* A damaged design object must silently fall back to the cold path and
   repair the entry — same answer, one more write.  A valid envelope whose
   payload carries another tier's tag is damage too. *)
let test_warm_corruption_falls_back () =
  let bench = Suite.gcd in
  let prog = Suite.program bench in
  let workload = bench.Suite.workload ~seed:7 ~passes:10 in
  let key =
    Driver.design_key ~options:small_options prog ~workload
      ~objective:Solution.Minimize_power ~laxity:2.0
  in
  let damage =
    [
      ( "truncated",
        fun d -> corrupt (object_path_of_key d key) (fun b -> Bytes.sub b 0 (Bytes.length b - 7)) );
      ( "sim payload",
        fun d ->
          copy_object
            ~src:(object_path_of_key ~ns:"sim" d (Driver.sim_key prog ~workload))
            ~dst:(object_path_of_key d key) );
    ]
  in
  List.iter
    (fun (name, damage) ->
      with_dir (fun d ->
          let store = Store.open_store ~dir:d () in
          let synth store =
            Driver.synthesize ~options:small_options ~store prog ~workload
              ~objective:Solution.Minimize_power ~laxity:2.0 ()
          in
          let cold = synth store in
          check_bool (name ^ ": object exists") true (Sys.file_exists (object_path_of_key d key));
          damage d;
          let store2 = Store.open_store ~dir:d () in
          let again = synth store2 in
          check_bool (name ^ ": fallback identical") true
            (design_fingerprint again = design_fingerprint cold);
          check_int (name ^ ": entry repaired") 1
            (tier "design" (Store.stats store2)).Store.ts_writes;
          (* And the repaired entry serves warm. *)
          let warm = synth store2 in
          check_bool (name ^ ": repaired warm identical") true
            (design_fingerprint warm = design_fingerprint cold)))
    damage

let with_store_check f =
  Unix.putenv "IMPACT_STORE_CHECK" "1";
  Fun.protect ~finally:(fun () -> Unix.putenv "IMPACT_STORE_CHECK" "0") f

(* IMPACT_STORE_CHECK must catch what the load-time validation cannot: a
   valid, self-consistent entry filed under another request's key.  Each
   planted entry passes the shape and metric cross-checks, so only the cold
   recomputation exposes it, and the [Failure] must reach the caller
   instead of reading as a miss. *)
let test_store_check_fires () =
  let bench = Suite.gcd in
  let prog = Suite.program bench in
  let workload seed = bench.Suite.workload ~seed ~passes:10 in
  let synth ?(options = small_options) store ~workload_seed =
    Driver.synthesize ~options ~store prog ~workload:(workload workload_seed)
      ~objective:Solution.Minimize_power ~laxity:2.0 ()
  in
  let diverges name f =
    match with_store_check f with
    | _ -> Alcotest.failf "%s: warm answer accepted" name
    | exception Failure msg ->
      check_bool (name ^ ": " ^ msg) true
        (String.ends_with ~suffix:"diverges from a cold recomputation" msg)
  in
  (* Another workload's simulation run, same pass count. *)
  with_dir (fun d ->
      ignore (synth (Store.open_store ~dir:d ()) ~workload_seed:7);
      copy_object
        ~src:(object_path_of_key ~ns:"sim" d (Driver.sim_key prog ~workload:(workload 7)))
        ~dst:(object_path_of_key ~ns:"sim" d (Driver.sim_key prog ~workload:(workload 8)));
      diverges "sim" (fun () -> synth (Store.open_store ~dir:d ()) ~workload_seed:8));
  (* Another search seed's design, same program and workload. *)
  with_dir (fun d ->
      let key seed =
        Driver.design_key ~options:{ small_options with seed } prog ~workload:(workload 7)
          ~objective:Solution.Minimize_power ~laxity:2.0
      in
      ignore
        (synth ~options:{ small_options with seed = 2 } (Store.open_store ~dir:d ()) ~workload_seed:7);
      copy_object ~src:(object_path_of_key d (key 2)) ~dst:(object_path_of_key d (key 1));
      diverges "design" (fun () -> synth (Store.open_store ~dir:d ()) ~workload_seed:7))

(* The tiered warm miss: same program and workload at a different laxity
   misses the design tier (a genuinely new search) but reuses the front-end
   tiers — the simulation run and the switching-statistics memos — and the
   result is bit-identical to a storeless cold run.  Runs under
   IMPACT_STORE_CHECK=1 so every reused artifact is recomputed and
   asserted against its cold twin. *)
let test_warm_miss_reuses_front_tiers () =
  with_dir (fun d ->
      let store = Store.open_store ~dir:d () in
      let bench = Suite.gcd in
      let prog = Suite.program bench in
      let workload = bench.Suite.workload ~seed:7 ~passes:10 in
      let synth ?store laxity =
        Driver.synthesize ~options:small_options ?store prog ~workload
          ~objective:Solution.Minimize_power ~laxity ()
      in
      ignore (synth ~store 2.0);
      let st = Store.stats store in
      Unix.putenv "IMPACT_STORE_CHECK" "1";
      let warm_miss =
        Fun.protect
          ~finally:(fun () -> Unix.putenv "IMPACT_STORE_CHECK" "0")
          (fun () -> synth ~store 3.0)
      in
      let st' = Store.stats store in
      check_int "design tier misses again" 2 (tier "design" st').Store.ts_writes;
      check_bool "sim tier hit" true
        ((tier "sim" st').Store.ts_hits > (tier "sim" st).Store.ts_hits);
      check_bool "traces tier hit" true
        ((tier "traces" st').Store.ts_hits > (tier "traces" st).Store.ts_hits);
      check_int "sim tier wrote only once" 1 (tier "sim" st').Store.ts_writes;
      let cold = synth 3.0 in
      check_bool "warm miss bit-identical to storeless cold" true
        (design_fingerprint warm_miss = design_fingerprint cold))

(* [eval_cache] is part of the store key when off: a signature-cache hit
   hands back a relabeled-isomorphic binding and later moves depend on
   unit ids, so the two settings can reach different designs.  Loops at
   power, laxity 2.25 (default search, 60 passes, seed 1) is such a case.
   A store filled cold with the cache off must not answer the default
   request: the default answer is the storeless default search. *)
let test_eval_cache_in_store_key () =
  let uncached = { Driver.default_options with Driver.eval_cache = false } in
  let bench = Suite.loops in
  let prog = Suite.program bench in
  let workload = bench.Suite.workload ~seed:1 ~passes:60 in
  let objective = Solution.Minimize_power and laxity = 2.25 in
  check_bool "design keys differ" true
    (Driver.design_key ~options:Driver.default_options prog ~workload ~objective ~laxity
    <> Driver.design_key ~options:uncached prog ~workload ~objective ~laxity);
  check_bool "sweep keys differ" true
    (Driver.sweep_key ~options:Driver.default_options prog ~workload ~laxities:[ laxity ]
    <> Driver.sweep_key ~options:uncached prog ~workload ~laxities:[ laxity ]);
  (* Default keys stay byte-identical to the ones earlier stores hold. *)
  check_string "default fingerprint unchanged"
    "clock=0x1.ep+3,style=wavesched,depth=4,cand=30,seed=1,restructure=true,iter=30,probes=4"
    (Driver.options_fingerprint Driver.default_options);
  with_dir (fun d ->
      let store = Store.open_store ~dir:d () in
      let synth ?store options =
        Driver.synthesize ~options ?store prog ~workload ~objective ~laxity ()
      in
      let off = synth ~store uncached in
      let served = synth ~store Driver.default_options in
      let reference = synth Driver.default_options in
      check_int "default request misses the design tier" 2
        (tier "design" (Store.stats store)).Store.ts_writes;
      check_bool "the settings disagree here" true
        (design_fingerprint off <> design_fingerprint reference);
      check_bool "default answer = storeless default" true
        (design_fingerprint served = design_fingerprint reference))

(* The in-memory fragment cache exists only to feed the store's "frag"
   tier: storeless runs schedule every signature-cache miss directly and
   report no fragment traffic, store-backed runs file fragments, and both
   reach the same designs. *)
let frag_counts (d : Driver.design) =
  (d.Driver.d_search.Search.frags_reused, d.Driver.d_search.Search.frags_scheduled)

let test_frags_only_with_store () =
  let synth_case bench =
    let prog = Suite.program bench in
    let workload = bench.Suite.workload ~seed:7 ~passes:10 in
    List.iter
      (fun (objective, laxity) ->
        let synth ?store () =
          Driver.synthesize ~options:small_options ?store prog ~workload ~objective
            ~laxity ()
        in
        let name = Printf.sprintf "%s %s %g" bench.Suite.bench_name
            (match objective with
            | Solution.Minimize_area -> "area"
            | Solution.Minimize_power -> "power")
            laxity
        in
        let storeless = synth () in
        check_bool (name ^ ": storeless reports no fragments") true
          (frag_counts storeless = (0, 0));
        with_dir (fun d ->
            let store = Store.open_store ~dir:d () in
            let stored = synth ~store () in
            check_bool (name ^ ": store run schedules fragments") true
              (snd (frag_counts stored) > 0);
            check_bool (name ^ ": frag tier written") true
              ((tier "frag" (Store.stats store)).Store.ts_writes > 0);
            check_bool (name ^ ": same design with and without a store") true
              (design_fingerprint stored = design_fingerprint storeless)))
      [ (Solution.Minimize_area, 1.5); (Solution.Minimize_power, 2.0) ]
  in
  List.iter synth_case [ Suite.loops; Suite.dealer ];
  let prog = Suite.program Suite.gcd in
  let workload = Suite.gcd.Suite.workload ~seed:7 ~passes:10 in
  let sweep ?store () =
    Driver.figure13 ~options:small_options ?store prog ~workload ~laxities:[ 1.0; 2.0 ]
  in
  let designs sw =
    List.concat_map
      (fun p -> [ p.Driver.sp_area_design; p.Driver.sp_power_design ])
      sw.Driver.sw_points
  in
  check_bool "storeless figure13 reports no fragments" true
    (List.for_all (fun d -> frag_counts d = (0, 0)) (designs (sweep ())));
  with_dir (fun d ->
      let store = Store.open_store ~dir:d () in
      let stored = sweep ~store () in
      check_bool "store figure13 schedules fragments" true
        (List.exists (fun d -> snd (frag_counts d) > 0) (designs stored));
      check_bool "store figure13 writes the frag tier" true
        ((tier "frag" (Store.stats store)).Store.ts_writes > 0))

(* --- single-flight scheduler ---------------------------------------------- *)

module Flight = Impact_store.Flight

let spin_until ?(timeout = 10.0) f =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if f () then true
    else if Unix.gettimeofday () -. t0 > timeout then false
    else begin
      Thread.yield ();
      go ()
    end
  in
  go ()

(* Four identical requests racing: exactly one computes, the three others
   provably attach to the in-flight leader (observed via [Flight.waiting])
   before the leader is released, and all four share the result. *)
let test_flight_coalesce () =
  let t = Flight.create ~limit:2 () in
  let gate = Atomic.make false in
  let execs = Atomic.make 0 in
  let work () =
    Atomic.incr execs;
    while not (Atomic.get gate) do
      Thread.yield ()
    done;
    42
  in
  let results = Array.make 4 (0, false) in
  let threads =
    Array.init 4 (fun i ->
        Thread.create (fun () -> results.(i) <- Flight.run t "k" work) ())
  in
  check_bool "followers attach" true (spin_until (fun () -> Flight.waiting t = 3));
  Atomic.set gate true;
  Array.iter Thread.join threads;
  check_int "computed exactly once" 1 (Atomic.get execs);
  Array.iter (fun (v, _) -> check_int "shared result" 42 v) results;
  check_int "three marked coalesced" 3
    (Array.to_list results |> List.filter snd |> List.length);
  let st = Flight.stats t in
  check_int "one leader" 1 st.Flight.fl_led;
  check_int "coalesced stat" 3 st.Flight.fl_coalesced;
  (* The flight is gone once published: a later call computes afresh. *)
  let v, coalesced = Flight.run t "k" (fun () -> 43) in
  check_bool "fresh flight after completion" true (v = 43 && not coalesced)

(* A leader's exception propagates to every coalesced follower, and the
   failed flight does not poison later calls on the same key. *)
let test_flight_exception () =
  let t = Flight.create ~limit:1 () in
  let gate = Atomic.make false in
  let work () =
    while not (Atomic.get gate) do
      Thread.yield ()
    done;
    failwith "leader failed"
  in
  let outcomes = Array.make 3 "" in
  let threads =
    Array.init 3 (fun i ->
        Thread.create
          (fun () ->
            outcomes.(i) <-
              (match Flight.run t "k" work with
              | _ -> "no exception"
              | exception Failure m -> m))
          ())
  in
  check_bool "followers attach" true (spin_until (fun () -> Flight.waiting t = 2));
  Atomic.set gate true;
  Array.iter Thread.join threads;
  Array.iter (fun o -> check_string "failure propagates" "leader failed" o) outcomes;
  let v, coalesced = Flight.run t "k" (fun () -> 7) in
  check_bool "fresh flight after failure" true (v = 7 && not coalesced)

(* Distinct keys overlap up to the admission limit: each leader blocks
   until the other has started, which can only terminate if both were
   admitted concurrently. *)
let test_flight_distinct_overlap () =
  let t = Flight.create ~limit:2 () in
  let started = Atomic.make 0 in
  let work () =
    Atomic.incr started;
    while Atomic.get started < 2 do
      Thread.yield ()
    done
  in
  let a = Thread.create (fun () -> ignore (Flight.run t "a" work)) () in
  let b = Thread.create (fun () -> ignore (Flight.run t "b" work)) () in
  Thread.join a;
  Thread.join b;
  check_int "both leaders ran concurrently" 2 (Atomic.get started)

(* Race stress: random thread/key/limit mixes.  Invariants: every call
   gets its key's value, concurrent executions never exceed the admission
   limit, every key is computed at least once, and every call either led
   or coalesced. *)
let prop_flight_stress =
  QCheck.Test.make ~count:25 ~name:"flight: dedup + admission under races"
    QCheck.(triple (int_range 1 4) (int_range 1 3) (int_range 4 16))
    (fun (limit, nkeys, nthreads) ->
      let t = Flight.create ~limit () in
      let active = Atomic.make 0 in
      let high = Atomic.make 0 in
      let execs = Array.init nkeys (fun _ -> Atomic.make 0) in
      let ok = Atomic.make true in
      let work ki () =
        let a = Atomic.fetch_and_add active 1 + 1 in
        let rec bump () =
          let h = Atomic.get high in
          if a > h && not (Atomic.compare_and_set high h a) then bump ()
        in
        bump ();
        Atomic.incr execs.(ki);
        Thread.yield ();
        Atomic.decr active;
        100 + ki
      in
      let threads =
        List.init nthreads (fun i ->
            let ki = i mod nkeys in
            Thread.create
              (fun () ->
                let v, _ = Flight.run t (string_of_int ki) (work ki) in
                if v <> 100 + ki then Atomic.set ok false)
              ())
      in
      List.iter Thread.join threads;
      let st = Flight.stats t in
      Atomic.get ok
      && Atomic.get high <= limit
      && Array.for_all (fun e -> Atomic.get e >= 1) execs
      && st.Flight.fl_led + st.Flight.fl_coalesced = nthreads)

(* Different seeds must produce different keys (no false sharing), and for
   any seed the warm answer must reproduce the cold one. *)
let prop_warm_identity_over_seeds =
  QCheck.Test.make ~count:6 ~name:"store: warm == cold for random seeds"
    QCheck.(int_range 1 1000)
    (fun seed ->
      with_dir (fun d ->
          let store = Store.open_store ~dir:d () in
          let bench = Suite.gcd in
          let prog = Suite.program bench in
          let workload = bench.Suite.workload ~seed ~passes:8 in
          let options = { small_options with Driver.seed } in
          let synth () =
            Driver.synthesize ~options ~store prog ~workload
              ~objective:Solution.Minimize_power ~laxity:2.0 ()
          in
          let cold = synth () in
          let warm = synth () in
          design_fingerprint warm = design_fingerprint cold
          && (Store.stats store).Store.st_hits >= 1))

let () =
  Alcotest.run "store"
    [
      ( "object store",
        [
          Alcotest.test_case "roundtrip + stats" `Quick test_roundtrip;
          Alcotest.test_case "clear and gc" `Quick test_clear_gc;
          Alcotest.test_case "logical-clock eviction" `Quick test_clock_eviction;
          Alcotest.test_case "hit refreshes clock" `Quick test_hit_refreshes_clock;
          Alcotest.test_case "cost-aware eviction" `Quick test_cost_aware_eviction;
          Alcotest.test_case "tracked total" `Quick test_tracked_total;
          Alcotest.test_case "clock ticks reserved in blocks" `Quick test_clock_blocks;
          QCheck_alcotest.to_alcotest prop_incremental_eviction;
          Alcotest.test_case "tier namespaces" `Quick test_tiers;
          Alcotest.test_case "human-readable sizes" `Quick test_human_bytes;
          Alcotest.test_case "corruption reads as miss" `Quick test_corruption;
        ] );
      ("wire", [ Alcotest.test_case "json + frames" `Quick test_wire_json ]);
      ( "single flight",
        [
          Alcotest.test_case "identical requests coalesce" `Quick test_flight_coalesce;
          Alcotest.test_case "leader exception propagates" `Quick test_flight_exception;
          Alcotest.test_case "distinct keys overlap" `Quick test_flight_distinct_overlap;
          QCheck_alcotest.to_alcotest prop_flight_stress;
        ] );
      ( "driver warm path",
        [
          Alcotest.test_case "six benchmarks bit-identical" `Slow test_warm_identity;
          Alcotest.test_case "figure13 sweep bit-identical" `Slow
            test_warm_sweep_identity;
          Alcotest.test_case "corrupt entry falls back cold" `Quick
            test_warm_corruption_falls_back;
          Alcotest.test_case "store check catches a planted entry" `Quick
            test_store_check_fires;
          Alcotest.test_case "warm miss reuses front tiers" `Slow
            test_warm_miss_reuses_front_tiers;
          Alcotest.test_case "eval_cache off keys separately" `Slow
            test_eval_cache_in_store_key;
          Alcotest.test_case "fragments only with a store" `Slow
            test_frags_only_with_store;
          QCheck_alcotest.to_alcotest prop_warm_identity_over_seeds;
        ] );
    ]
