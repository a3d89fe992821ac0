(* The programs under test: front-end elaboration (timed as the [lang]
   layer), workload generation, and the output oracle. *)

module Graph = Impact_cdfg.Graph
module Suite = Impact_benchmarks.Suite
module Interp = Impact_lang.Interp
module Bitvec = Impact_util.Bitvec
module Measure = Impact_power.Measure

type t = {
  name : string;
  target : string;  (** how the serve daemon names it: [bench:NAME] or a path *)
  tprogram : Impact_lang.Typecheck.tprogram;
  program : Graph.program;
  workload : seed:int -> passes:int -> (string * int) list list;
}

(* Parse, typecheck and elaborate — the three public calls [Suite.program]
   and the CLI's file loader make — returning the typed AST too, which the
   oracle interprets. *)
let elaborate source =
  let ast = Impact_lang.Parser.parse source in
  let typed = Impact_lang.Typecheck.check ast in
  (typed, Impact_lang.Elaborate.program typed)

let of_bench name =
  let b = Suite.find name in
  let tprogram, program = elaborate b.Suite.source in
  { name; target = "bench:" ^ name; tprogram; program; workload = b.Suite.workload }

(* The CLI's workload generator for file targets (uniform inputs, capped at
   4096), so in-process replays see the daemon's exact inputs. *)
let random_workload (program : Graph.program) ~seed ~passes =
  let rng = Impact_util.Rng.create ~seed in
  List.init passes (fun _ ->
      List.map
        (fun (name, width) ->
          let bound = min (1 lsl (width - 1)) 4096 in
          (name, Impact_util.Rng.int_in rng 0 (bound - 1)))
        program.Graph.prog_inputs)

let of_file path =
  let source = In_channel.with_open_bin path In_channel.input_all in
  let tprogram, program = elaborate source in
  {
    name = Filename.remove_extension (Filename.basename path);
    target = path;
    tprogram;
    program;
    workload = (fun ~seed ~passes -> random_workload program ~seed ~passes);
  }

(* --- Output oracle -------------------------------------------------------------

   Every reported design is simulated at RT level ({!Driver.measure}) and its
   per-pass outputs compared with the reference interpreter run on the typed
   source.  Returns the mismatches as (pass, output, expected, got). *)

type mismatch = { pass : int; output : string; expected : string; got : string }

let show v = string_of_int (Bitvec.to_signed v)

let check_outputs t ~workload (m : Measure.t) =
  List.concat
    (List.mapi
       (fun pass inputs ->
         let expected = (Interp.run t.tprogram ~inputs).Interp.results in
         let got = if pass < Array.length m.Measure.m_outputs then m.Measure.m_outputs.(pass) else [] in
         List.filter_map
           (fun (output, v) ->
             match List.assoc_opt output got with
             | Some g when Bitvec.equal g v -> None
             | Some g -> Some { pass; output; expected = show v; got = show g }
             | None -> Some { pass; output; expected = show v; got = "missing" })
           expected)
       workload)
