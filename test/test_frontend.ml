(* External-design frontend tests: golden bit-identity of parsed designs
   against generator-built equivalents, printer/parser round-trips, exact
   false-path exclusion in report_checks, and determinism of the frontend
   fuzz corpus against the committed verdict stream. *)

module Design = Ssta_frontend.Design
module Verilog = Ssta_frontend.Verilog
module Liberty = Ssta_frontend.Liberty
module Sdc = Ssta_frontend.Sdc
module Obs = Ssta_obs.Obs
module Fuzz = Ssta_robust_inject.Fuzz
module Netlist = Ssta_circuit.Netlist
module Iscas = Ssta_circuit.Iscas
module Random_logic = Ssta_circuit.Random_logic
module Cell = Ssta_cell.Cell
module Library = Ssta_cell.Library
module Build = Ssta_timing.Build
module Extract = Hier_ssta.Extract
module Model_io = Hier_ssta.Model_io
module Rng = Ssta_gauss.Rng

let read_file path = In_channel.with_open_text path In_channel.input_all
let example name = read_file ("../examples/frontend/" ^ name)

(* Structural netlist equality, floats compared bitwise: the lowering must
   rebuild the generator netlist exactly, not approximately. *)
let cell_equal (a : Cell.t) (b : Cell.t) =
  a.name = b.name && a.n_inputs = b.n_inputs && a.d0 = b.d0 && a.sens = b.sens
  && a.load_sens = b.load_sens

let gate_equal (a : Netlist.gate) (b : Netlist.gate) =
  cell_equal a.cell b.cell && a.fanins = b.fanins

let netlist_equal (a : Netlist.t) (b : Netlist.t) =
  a.name = b.name && a.n_pi = b.n_pi
  && Array.length a.gates = Array.length b.gates
  && Array.for_all2 gate_equal a.gates b.gates
  && a.outputs = b.outputs

(* The model stats line ends with the extraction wall-clock - the only
   non-deterministic byte in the serialization; zero it before comparing. *)
let zero_wall s =
  String.split_on_char '\n' s
  |> List.map (fun line ->
         if String.length line > 6 && String.sub line 0 6 = "stats " then
           match String.rindex_opt line ' ' with
           | Some i -> String.sub line 0 i ^ " 0"
           | None -> line
         else line)
  |> String.concat "\n"

let model_string domains nl =
  Ssta_par.Par.with_domains domains (fun () ->
      zero_wall (Model_io.to_string (Extract.extract (Build.characterize nl))))

let parse_example stem =
  Design.lower
    (Design.parse ~verilog:(example (stem ^ ".v"))
       ~liberty:(example (stem ^ ".lib"))
       ~sdc:(example (stem ^ ".sdc"))
       ())

(* c17 by hand through the Builder, mirroring examples/frontend/c17.v:
   inputs n1 n2 n3 n6 n7 are ids 0-4, gates follow in declaration order. *)
let c17_builder () =
  let b = Netlist.Builder.create ~name:"c17" ~n_pi:5 in
  let nand2 = Library.nand2 in
  let g fanins = Netlist.Builder.add_gate b nand2 (Array.of_list fanins) in
  let n10 = g [ 0; 2 ] in
  let n11 = g [ 2; 3 ] in
  let n16 = g [ 1; n11 ] in
  let n19 = g [ n11; 4 ] in
  let n22 = g [ n10; n16 ] in
  let n23 = g [ n16; n19 ] in
  Netlist.Builder.finish b ~outputs:[| n22; n23 |]

let test_c17_golden () =
  let lowered = parse_example "c17" in
  let built = c17_builder () in
  Alcotest.(check bool)
    "parsed c17 netlist = hand-built netlist" true
    (netlist_equal lowered.Design.netlist built);
  List.iter
    (fun domains ->
      Alcotest.(check string)
        (Printf.sprintf "c17 model bit-identical at %d domains" domains)
        (model_string domains built)
        (model_string domains lowered.Design.netlist))
    [ 1; 4 ]

let test_c432_golden () =
  let lowered = parse_example "c432" in
  let built = Iscas.build "c432" in
  Alcotest.(check bool)
    "parsed c432 netlist = Iscas.build c432" true
    (netlist_equal lowered.Design.netlist built);
  List.iter
    (fun domains ->
      Alcotest.(check string)
        (Printf.sprintf "c432 model bit-identical at %d domains" domains)
        (model_string domains built)
        (model_string domains lowered.Design.netlist))
    [ 1; 4 ]

(* of_netlist -> print -> parse -> lower must reproduce the netlist; the
   examples on disk are one instance of this, the property covers random
   circuits (sizes small enough to keep characterization out of the loop -
   lower alone decides the round-trip).  [Verilog.of_netlist] rejects a
   primary input that is also a primary output, by design, so such a draw
   is replaced by the next spec from the same stream. *)
let random_netlist seed =
  let rng = Rng.create ~seed in
  let rec draw () =
    let spec =
      {
        Random_logic.name = "rnd";
        n_pi = 2 + Rng.int rng 5;
        n_po = 1 + Rng.int rng 3;
        n_gates = 5 + Rng.int rng 36;
        seed = 1 + Rng.int rng 1_000_000;
        locality = 0.2 +. (0.6 *. float_of_int (Rng.int rng 100) /. 100.0);
      }
    in
    let nl = Random_logic.make spec in
    if Array.exists (Netlist.is_pi nl) nl.Netlist.outputs then draw () else nl
  in
  draw ()

let qcheck_roundtrip name prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:60 ~name QCheck.(int_range 0 100_000) prop)

let prop_verilog_roundtrip seed =
  let d = Design.of_netlist (random_netlist seed) in
  Verilog.equal d.Design.modul (Verilog.parse (Verilog.to_string d.Design.modul))

let prop_liberty_roundtrip seed =
  let d = Design.of_netlist (random_netlist seed) in
  Liberty.equal d.Design.lib (Liberty.parse (Liberty.to_string d.Design.lib))

let prop_lower_roundtrip seed =
  let nl = random_netlist seed in
  let d = Design.of_netlist nl in
  let reparsed =
    Design.parse
      ~verilog:(Verilog.to_string d.Design.modul)
      ~liberty:(Liberty.to_string d.Design.lib)
      ()
  in
  netlist_equal nl (Design.lower reparsed).Design.netlist

let random_sdc seed =
  let rng = Rng.create ~seed in
  let name prefix i = Printf.sprintf "%s%d" prefix i in
  let ports prefix =
    List.init (1 + Rng.int rng 3) (fun i -> name prefix (i + Rng.int rng 4))
    |> List.sort_uniq compare
  in
  let fl lo hi = lo +. ((hi -. lo) *. float_of_int (Rng.int rng 10_000) /. 1e4) in
  let clocks =
    List.init (Rng.int rng 3) (fun i ->
        { Sdc.clk_name = name "clk" i; period = fl 1.0 1000.0 })
  in
  let dclock () =
    match clocks with
    | [] -> None
    | { Sdc.clk_name; _ } :: _ -> if Rng.int rng 2 = 0 then Some clk_name else None
  in
  let io prefix =
    List.init (Rng.int rng 3) (fun _ ->
        { Sdc.ports = ports prefix; delay = fl 0.0 50.0; dclock = dclock () })
  in
  {
    Sdc.clocks;
    input_delays = io "in";
    output_delays = io "out";
    false_paths =
      List.init (Rng.int rng 2) (fun _ ->
          { Sdc.from_ports = ports "in"; to_ports = ports "out" });
  }

let prop_sdc_roundtrip seed =
  let sdc = random_sdc seed in
  let printed = Sdc.to_string sdc in
  let reparsed = Sdc.parse printed in
  (* print -> parse -> print is a fixpoint, and the value round-trips. *)
  Sdc.equal sdc reparsed && String.equal printed (Sdc.to_string reparsed)

let test_report_checks_false_path () =
  let lowered = parse_example "c17" in
  let build = Build.characterize lowered.Design.netlist in
  let checks = Design.report_checks ~k:5 lowered ~build in
  Alcotest.(check string) "clock from SDC" "clk" checks.Design.clock;
  Alcotest.(check (float 0.0)) "period from SDC" 250.0 checks.Design.period;
  let ep port =
    List.find (fun e -> e.Design.port = port) checks.Design.endpoints
  in
  let n22 = ep "n22" and n23 = ep "n23" in
  (* set_false_path -from n1 -to n22: no reported path into n22 may start
     at n1 (vertex 0); n23 keeps its n1-rooted paths only if they exist
     structurally (they do not in c17 - but its arrival must use all
     sources, so it differs from n22's restricted sweep only by policy). *)
  List.iter
    (fun p ->
      match p.Hier_ssta.Path_report.vertices with
      | first :: _ ->
          Alcotest.(check bool) "no path from n1 into n22" true (first <> 0)
      | [] -> Alcotest.fail "empty path")
    n22.Design.paths;
  Alcotest.(check bool) "n22 keeps true paths" true (n22.Design.arrival <> None);
  Alcotest.(check bool) "n23 unaffected" true (n23.Design.arrival <> None);
  List.iter
    (fun e ->
      Alcotest.(check bool)
        (e.Design.port ^ " p_met in [0,1]")
        true
        (e.Design.p_met >= 0.0 && e.Design.p_met <= 1.0))
    checks.Design.endpoints

let test_fuzz_corpus_golden () =
  let ctx = Fuzz.make_ctx "c432" in
  let verdicts = Fuzz.run_corpus ctx ~seed:42 ~cases_per_class:175 in
  Alcotest.(check int) "corpus size" 3150 (List.length verdicts);
  Alcotest.(check bool)
    ("no escaped exceptions:\n" ^ Fuzz.summary verdicts)
    true (Fuzz.all_pass verdicts);
  (* Bit-stable against the committed verdict stream: same seed, same
     corpus, byte for byte - regardless of PAR_DOMAINS. *)
  Alcotest.(check string)
    "verdict stream matches committed golden"
    (read_file "golden/frontend_fuzz_verdicts.jsonl")
    (Fuzz.jsonl_of_verdicts verdicts)

(* [hssta report-checks -k 5] on the example trios, byte for byte against
   the committed output of the pre-index path engine. *)
let test_report_checks_golden () =
  List.iter
    (fun stem ->
      let lowered = parse_example stem in
      let build = Build.characterize lowered.Design.netlist in
      let checks = Design.report_checks ~k:5 lowered ~build in
      let got = Format.asprintf "%a" (Design.pp_checks lowered) checks in
      Alcotest.(check string)
        (stem ^ " report_checks -k 5")
        (read_file (Printf.sprintf "golden/report_checks_%s_k5.txt" stem))
        got)
    [ "c17"; "c432" ]

(* Endpoints whose false paths exclude the same inputs share one
   propagation, and only the source sets some endpoint needs are swept:
   here all seven c432 endpoints exclude {n0, n1} and n147 also n5, so
   two sweeps run and the unrestricted arrival state is never built. *)
let test_report_checks_false_path_memo () =
  let lowered = parse_example "c432" in
  let sdc = lowered.Design.design.Design.sdc in
  let fp from_ports to_ports = { Sdc.from_ports; to_ports } in
  let lowered =
    {
      lowered with
      Design.design =
        {
          lowered.Design.design with
          Design.sdc =
            {
              sdc with
              Sdc.false_paths =
                [
                  fp [ "n0"; "n1" ] [];
                  fp [ "n1"; "n0" ] [ "n139" ];
                  fp [ "n5" ] [ "n147" ];
                ];
            };
        };
    }
  in
  let build = Build.characterize lowered.Design.netlist in
  let saved = Obs.enabled () in
  Obs.reset ();
  Obs.enable ();
  let checks =
    Fun.protect ~finally:(fun () -> Obs.set_enabled saved)
      (fun () -> Design.report_checks ~k:5 lowered ~build)
  in
  let sweeps = Obs.find_counter "propagate.forward_sweeps" in
  Obs.reset ();
  Alcotest.(check int) "forward sweeps" 2 sweeps;
  let excluded port =
    if port = "n147" then [ "n0"; "n1"; "n5" ] else [ "n0"; "n1" ]
  in
  List.iter
    (fun e ->
      List.iter
        (fun p ->
          match p.Hier_ssta.Path_report.vertices with
          | first :: _ ->
              if List.mem lowered.Design.net_names.(first) (excluded e.Design.port)
              then
                Alcotest.failf "%s: path from excluded %s" e.Design.port
                  lowered.Design.net_names.(first)
          | [] -> Alcotest.fail "empty path")
        e.Design.paths)
    checks.Design.endpoints

let test_malformed_inputs () =
  let fails fmt parse src =
    match parse src with
    | (_ : unit) -> Alcotest.fail (fmt ^ ": expected a structured error")
    | exception Ssta_robust.Robust.Error ctx ->
        Alcotest.(check bool)
          (fmt ^ " error carries a position")
          true
          (ctx.Ssta_robust.Robust.pos <> None)
  in
  fails "verilog" (fun s -> ignore (Verilog.parse s)) "module m (a; endmodule";
  fails "liberty" (fun s -> ignore (Liberty.parse s)) "library (l) { cell (x) { } }";
  fails "sdc" (fun s -> ignore (Sdc.parse s)) "create_clock -period -5 -name c"

let suites =
  [
    ( "frontend.golden",
      [
        Alcotest.test_case "c17 parse = hand-built (netlist+model)" `Quick
          test_c17_golden;
        Alcotest.test_case "c432 parse = Iscas.build (netlist+model)" `Slow
          test_c432_golden;
      ] );
    ( "frontend.roundtrip",
      [
        qcheck_roundtrip "verilog print/parse round-trip" prop_verilog_roundtrip;
        qcheck_roundtrip "liberty print/parse round-trip" prop_liberty_roundtrip;
        qcheck_roundtrip "design lower round-trip" prop_lower_roundtrip;
        qcheck_roundtrip "sdc print/parse fixpoint" prop_sdc_roundtrip;
      ] );
    ( "frontend.checks",
      [
        Alcotest.test_case "report_checks excludes false path" `Quick
          test_report_checks_false_path;
        Alcotest.test_case "report_checks -k 5 = golden (c17, c432)" `Quick
          test_report_checks_golden;
        Alcotest.test_case "false-path re-propagation memoized" `Quick
          test_report_checks_false_path_memo;
        Alcotest.test_case "malformed inputs fail structurally" `Quick
          test_malformed_inputs;
      ] );
    ( "frontend.fuzz",
      [
        Alcotest.test_case "corpus deterministic, zero escapes" `Quick
          test_fuzz_corpus_golden;
      ] );
  ]
