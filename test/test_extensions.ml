(* Tests for the extension modules: model serialization, variance
   diagnostics, hold-side (min) analysis, corner comparison, path reports
   and Graphviz export. *)

module H = Hier_ssta
module Form = Ssta_canonical.Form
module Form_buf = Ssta_canonical.Form_buf
module Build = Ssta_timing.Build
module Tgraph = Ssta_timing.Tgraph

let close ?(tol = 1e-9) msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

let build = lazy (Build.characterize (Ssta_circuit.Iscas.build "c432"))
let model = lazy (H.Extract.extract ~delta:0.05 (Lazy.force build))

(* ------------------------------------------------------------------ *)
(* Model_io                                                            *)
(* ------------------------------------------------------------------ *)

let test_model_io_roundtrip () =
  let m = Lazy.force model in
  let text = H.Model_io.to_string m in
  let m' = H.Model_io.of_string text in
  Alcotest.(check string) "name" m.H.Timing_model.name m'.H.Timing_model.name;
  Alcotest.(check int)
    "edges"
    (Tgraph.n_edges m.H.Timing_model.graph)
    (Tgraph.n_edges m'.H.Timing_model.graph);
  Alcotest.(check int)
    "vertices"
    (Tgraph.n_vertices m.H.Timing_model.graph)
    (Tgraph.n_vertices m'.H.Timing_model.graph);
  (* Forms must round-trip bit-exactly. *)
  Array.iteri
    (fun e f ->
      if
        not
          (Sweep_oracle.equal ~tol:0.0 f
             (Form_buf.get m'.H.Timing_model.forms e))
      then Alcotest.fail (Printf.sprintf "edge %d form drifted" e))
    (Sweep_oracle.unpack m.H.Timing_model.forms);
  (* And so must the serialized text itself (idempotence). *)
  Alcotest.(check string)
    "stable serialization" text
    (H.Model_io.to_string m')

let test_model_io_preserves_io_delays () =
  let m = Lazy.force model in
  let m' = H.Model_io.of_string (H.Model_io.to_string m) in
  let io = H.Timing_model.io_delays m in
  let io' = H.Timing_model.io_delays m' in
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j f ->
          match (f, io'.(i).(j)) with
          | None, None -> ()
          | Some a, Some b ->
              if not (Sweep_oracle.equal ~tol:0.0 a b) then
                Alcotest.fail (Printf.sprintf "io delay (%d,%d) drifted" i j)
          | _ -> Alcotest.fail "connectivity drifted")
        row)
    io

let test_model_io_file () =
  let m = Lazy.force model in
  let path = Filename.temp_file "hssta" ".model" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      H.Model_io.save m ~path;
      let m' = H.Model_io.load ~path in
      Alcotest.(check int)
        "edge count after file roundtrip"
        (Tgraph.n_edges m.H.Timing_model.graph)
        (Tgraph.n_edges m'.H.Timing_model.graph))

let test_model_io_rejects_garbage () =
  List.iter
    (fun (name, text) ->
      Alcotest.(check bool)
        name true
        (try
           ignore (H.Model_io.of_string text);
           false
         with Ssta_robust.Robust.Error ctx ->
           ctx.Ssta_robust.Robust.subsystem = "model_io"
           && ctx.Ssta_robust.Robust.indices <> []))
    [
      ("bad magic", "not-a-model\n");
      ("truncated", "hssta-timing-model v1\nname x\n");
      ( "bad token",
        "hssta-timing-model v1\nname x\ndelta oops\n" );
    ]

let test_model_io_loaded_model_analyzes () =
  (* The loaded model must drop into the hierarchical flow unchanged. *)
  let b = Lazy.force build in
  let m = Lazy.force model in
  let m' = H.Model_io.of_string (H.Model_io.to_string m) in
  (* c432 has 36 inputs / 7 outputs - not square - so build a 1-instance
     design manually. *)
  let die = m.H.Timing_model.die in
  let fp inst_model =
    H.Floorplan.create ~die
      ~instances:
        [| { H.Floorplan.label = "u0"; build = Some b; model = inst_model;
             origin = (0.0, 0.0) } |]
      ~connections:[||]
  in
  let run inst_model =
    let fp = fp inst_model in
    let dg = H.Design_grid.build fp in
    (H.Hier_analysis.analyze fp dg ~mode:H.Replace.Replaced).H.Hier_analysis.delay
  in
  let d = run m and d' = run m' in
  close ~tol:0.0 "same design mean" d.Form.mean d'.Form.mean;
  close ~tol:0.0 "same design sigma" (Form.std d) (Form.std d')

(* ------------------------------------------------------------------ *)
(* Diagnostics                                                         *)
(* ------------------------------------------------------------------ *)

let test_diagnostics_sums () =
  let b = Lazy.force build in
  match H.Propagate.circuit_delay b.Build.graph ~forms:b.Build.forms with
  | None -> Alcotest.fail "unreachable"
  | Some f ->
      let budget = H.Diagnostics.budget ~n_params:3 f in
      let parts =
        Array.fold_left ( +. ) 0.0 budget.H.Diagnostics.global_per_param
        +. Array.fold_left ( +. ) 0.0 budget.H.Diagnostics.local_per_param
        +. budget.H.Diagnostics.random
      in
      close ~tol:1e-9 "parts sum to total" budget.H.Diagnostics.total_variance
        parts;
      let fg = H.Diagnostics.fraction_global budget in
      let fl = H.Diagnostics.fraction_local budget in
      let fr = H.Diagnostics.fraction_random budget in
      close ~tol:1e-9 "fractions sum to 1" 1.0 (fg +. fl +. fr);
      (* With the paper's split, global and local both matter. *)
      Alcotest.(check bool) "global material" true (fg > 0.2);
      Alcotest.(check bool) "local material" true (fl > 0.1)

let test_diagnostics_pure_random () =
  let f = Form.make ~mean:1.0 ~globals:[| 0.0 |] ~pcs:[| 0.0; 0.0 |] ~rand:2.0 in
  let b = H.Diagnostics.budget ~n_params:1 f in
  close "all random" 1.0 (H.Diagnostics.fraction_random b);
  close "variance" 4.0 b.H.Diagnostics.total_variance

(* ------------------------------------------------------------------ *)
(* Corners                                                             *)
(* ------------------------------------------------------------------ *)

let test_corner_ordering () =
  let b = Lazy.force build in
  let fast = H.Corners.corner_delay b (H.Corners.Fast 3.0) in
  let nominal = H.Corners.corner_delay b H.Corners.Nominal in
  let gslow = H.Corners.corner_delay b (H.Corners.Global_slow 3.0) in
  let slow = H.Corners.corner_delay b (H.Corners.Slow 3.0) in
  Alcotest.(check bool) "fast < nominal" true (fast < nominal);
  Alcotest.(check bool) "nominal < global slow" true (nominal < gslow);
  Alcotest.(check bool) "global slow < full slow" true (gslow < slow)

let test_corner_pessimism () =
  let b = Lazy.force build in
  let p = H.Corners.pessimism b in
  (* The paper's premise: the all-variation corner is pessimistic compared
     to the statistical 3-sigma quantile. *)
  Alcotest.(check bool)
    (Printf.sprintf "corner %.0f above ssta q99.87 %.0f" p.H.Corners.slow3
       p.H.Corners.ssta_q9987)
    true
    (p.H.Corners.slow3 > p.H.Corners.ssta_q9987);
  Alcotest.(check bool)
    (Printf.sprintf "margin ratio %.2f > 1.3" p.H.Corners.margin_ratio)
    true
    (p.H.Corners.margin_ratio > 1.3)

(* ------------------------------------------------------------------ *)
(* Path report                                                         *)
(* ------------------------------------------------------------------ *)

let dims = { Form.n_globals = 1; n_pcs = 1 }
let det v = Form.constant dims v

(* A path index over a forward sweep of [forms] from the graph's inputs. *)
let swept_index g forms =
  let forms = Sweep_oracle.pack_like forms in
  let ws = H.Propagate.create_workspace () in
  H.Propagate.forward_into ws g ~forms ~sources:g.Tgraph.inputs;
  H.Path_report.index g ~forms ~arrival:ws

let test_path_trace_chain () =
  let g =
    Tgraph.make ~n_vertices:3
      ~edges:[| (0, 1); (1, 2) |]
      ~inputs:[| 0 |] ~outputs:[| 2 |]
  in
  let forms = [| det 1.0; det 2.0 |] in
  match H.Path_report.trace (swept_index g forms) ~endpoint:2 with
  | None -> Alcotest.fail "no path"
  | Some p ->
      Alcotest.(check (list int)) "vertices" [ 0; 1; 2 ] p.H.Path_report.vertices;
      Alcotest.(check (list int)) "edges" [ 0; 1 ] p.H.Path_report.edges;
      close "delay" 3.0 p.H.Path_report.delay.Form.mean;
      close ~tol:1e-6 "chain criticality" 1.0 p.H.Path_report.criticality

let noisy mean =
  Form.make ~mean ~globals:[| 0.05 *. mean |] ~pcs:[| 0.05 *. mean |]
    ~rand:(0.02 *. mean)

let test_path_trace_picks_dominant () =
  (* Diamond with a dominant branch. *)
  let g =
    Tgraph.make ~n_vertices:4
      ~edges:[| (0, 1); (0, 2); (1, 3); (2, 3) |]
      ~inputs:[| 0 |] ~outputs:[| 3 |]
  in
  let forms = [| noisy 10.0; noisy 1.0; noisy 10.0; noisy 1.0 |] in
  match H.Path_report.trace (swept_index g forms) ~endpoint:3 with
  | None -> Alcotest.fail "no path"
  | Some p ->
      Alcotest.(check (list int)) "dominant path" [ 0; 1; 3 ]
        p.H.Path_report.vertices

let test_top_paths () =
  let g =
    Tgraph.make ~n_vertices:4
      ~edges:[| (0, 1); (0, 2); (1, 3); (2, 3) |]
      ~inputs:[| 0 |] ~outputs:[| 3 |]
  in
  let forms = [| noisy 10.0; noisy 9.0; noisy 10.0; noisy 9.0 |] in
  let paths = H.Path_report.top_paths (swept_index g forms) ~endpoint:3 ~k:3 in
  Alcotest.(check int) "two distinct paths" 2 (List.length paths);
  (match paths with
  | p1 :: p2 :: _ ->
      Alcotest.(check bool)
        "ordered by criticality" true
        (p1.H.Path_report.criticality >= p2.H.Path_report.criticality)
  | _ -> Alcotest.fail "missing paths");
  (* On a c432-scale circuit the top path of the worst endpoint should have
     substantial criticality. *)
  let b = Lazy.force build in
  let ws = H.Propagate.create_workspace () in
  H.Propagate.forward_into ws b.Build.graph
    ~forms:b.Build.forms
    ~sources:b.Build.graph.Tgraph.inputs;
  match H.Propagate.ws_worst ws b.Build.graph.Tgraph.outputs with
  | None -> Alcotest.fail "no endpoint"
  | Some endpoint -> (
      match
        H.Path_report.top_paths
          (H.Path_report.index b.Build.graph ~forms:b.Build.forms
             ~arrival:ws)
          ~endpoint ~k:5
      with
      | [] -> Alcotest.fail "no paths on c432"
      | p :: _ ->
          Alcotest.(check bool)
            "top path criticality > 0.15" true
            (p.H.Path_report.criticality > 0.15))

(* ------------------------------------------------------------------ *)
(* Output load model (paper future work)                               *)
(* ------------------------------------------------------------------ *)

let test_output_load_increments_positive () =
  let m = Lazy.force model in
  Alcotest.(check int)
    "one increment per output"
    (H.Timing_model.n_outputs m)
    (Array.length m.H.Timing_model.output_load);
  Array.iter
    (fun f ->
      Alcotest.(check bool) "positive increment" true (f.Form.mean > 0.0))
    m.H.Timing_model.output_load

let test_output_load_raises_delay () =
  (* The same module driving two sinks per output must be slower than
     driving one. *)
  let nl = Ssta_circuit.Multiplier.make ~bits:4 () in
  let b = Build.characterize nl in
  let m = H.Extract.extract ~delta:0.05 b in
  let mdie = m.H.Timing_model.die in
  let w = Ssta_variation.Tile.width mdie
  and h = Ssta_variation.Tile.height mdie in
  let die = Ssta_variation.Tile.make ~x0:0.0 ~y0:0.0 ~x1:(3.0 *. w) ~y1:h in
  let inst x label =
    { H.Floorplan.label; build = Some b; model = m; origin = (x, 0.0) }
  in
  let n_out = H.Timing_model.n_outputs m in
  let conn src dst =
    Array.init n_out (fun p ->
        ({ H.Floorplan.inst = src; port = p }, { H.Floorplan.inst = dst; port = p }))
  in
  let single =
    H.Floorplan.create ~die
      ~instances:[| inst 0.0 "a"; inst w "b"; inst (2.0 *. w) "c" |]
      ~connections:(conn 0 1)
  in
  let double =
    H.Floorplan.create ~die
      ~instances:[| inst 0.0 "a"; inst w "b"; inst (2.0 *. w) "c" |]
      ~connections:(Array.append (conn 0 1) (conn 0 2))
  in
  let delay fp =
    let dg = H.Design_grid.build fp in
    (H.Hier_analysis.analyze fp dg ~mode:H.Replace.Replaced)
      .H.Hier_analysis.delay
  in
  let d1 = delay single and d2 = delay double in
  Alcotest.(check bool)
    (Printf.sprintf "double fanout slower (%.1f > %.1f)" d2.Form.mean
       d1.Form.mean)
    true
    (d2.Form.mean > d1.Form.mean)

let test_output_load_roundtrips () =
  let m = Lazy.force model in
  let m' = H.Model_io.of_string (H.Model_io.to_string m) in
  Array.iteri
    (fun p f ->
      if not (Sweep_oracle.equal ~tol:0.0 f m'.H.Timing_model.output_load.(p))
      then
        Alcotest.fail (Printf.sprintf "load increment %d drifted" p))
    m.H.Timing_model.output_load

(* ------------------------------------------------------------------ *)
(* Multi-level hierarchy                                               *)
(* ------------------------------------------------------------------ *)

let test_extract_design_compresses () =
  let b = Build.characterize (Ssta_circuit.Multiplier.make ~bits:4 ()) in
  let m1 = H.Extract.extract ~delta:0.05 b in
  let fp1 = H.Floorplan.mult_grid ~label:"quad" ~build:b ~model:m1 () in
  let dg1 = H.Design_grid.build fp1 in
  let res1 = H.Hier_analysis.analyze fp1 dg1 ~mode:H.Replace.Replaced in
  let super = H.Extract.extract_design ~name:"quad_model" fp1 dg1 res1 in
  let s = super.H.Timing_model.stats in
  Alcotest.(check bool)
    "design model smaller" true
    (s.H.Timing_model.model_edges < s.H.Timing_model.original_edges);
  Alcotest.(check int)
    "ports preserved"
    (Array.length fp1.H.Floorplan.ext_inputs
    + Array.length fp1.H.Floorplan.ext_outputs)
    (H.Timing_model.n_inputs super + H.Timing_model.n_outputs super);
  (* The design model's IO delays match the analyzed design's arrivals
     (sanity: its own worst IO delay equals the design delay's mean within
     the max-approximation drift). *)
  let io = H.Timing_model.io_delays super in
  let worst = ref 0.0 in
  Array.iter
    (Array.iter (function
      | Some f -> worst := Float.max !worst f.Form.mean
      | None -> ()))
    io;
  let d = res1.H.Hier_analysis.delay in
  Alcotest.(check bool)
    (Printf.sprintf "worst IO %.1f ~ design delay %.1f" !worst d.Form.mean)
    true
    (abs_float (!worst -. d.Form.mean) /. d.Form.mean < 0.03)

let test_second_level_analysis () =
  (* Level 2: four copies of the level-1 design model, gray-box (no
     netlist), in a 2x2 super-floorplan. *)
  let b = Build.characterize (Ssta_circuit.Multiplier.make ~bits:4 ()) in
  let m1 = H.Extract.extract ~delta:0.05 b in
  let fp1 = H.Floorplan.mult_grid ~label:"quad" ~build:b ~model:m1 () in
  let dg1 = H.Design_grid.build fp1 in
  let res1 = H.Hier_analysis.analyze fp1 dg1 ~mode:H.Replace.Replaced in
  let super = H.Extract.extract_design ~name:"quad_model" fp1 dg1 res1 in
  (* Serialization also covers heterogeneous-grid models. *)
  let super = H.Model_io.of_string (H.Model_io.to_string super) in
  let fp2 = H.Floorplan.mult_grid ~label:"super" ~model:super () in
  let dg2 = H.Design_grid.build fp2 in
  let res2 = H.Hier_analysis.analyze fp2 dg2 ~mode:H.Replace.Replaced in
  let d2 = res2.H.Hier_analysis.delay in
  let d1 = res1.H.Hier_analysis.delay in
  Alcotest.(check bool)
    (Printf.sprintf "two levels deeper (%.1f vs %.1f)" d2.Form.mean
       d1.Form.mean)
    true
    (d2.Form.mean > 1.5 *. d1.Form.mean && d2.Form.mean < 2.5 *. d1.Form.mean);
  Alcotest.(check bool) "has spread" true (Form.std d2 > Form.std d1 *. 0.8);
  (* Gray-box instances cannot be flattened - by design. *)
  Alcotest.(check bool)
    "flatten refuses gray boxes" true
    (try
       ignore (H.Hier_analysis.flatten fp2 dg2);
       false
     with Failure _ -> true)

let suites =
  [
    ( "ext.model_io",
      [
        Alcotest.test_case "roundtrip" `Quick test_model_io_roundtrip;
        Alcotest.test_case "io delays preserved" `Quick
          test_model_io_preserves_io_delays;
        Alcotest.test_case "file save/load" `Quick test_model_io_file;
        Alcotest.test_case "rejects garbage" `Quick
          test_model_io_rejects_garbage;
        Alcotest.test_case "loaded model analyzes" `Quick
          test_model_io_loaded_model_analyzes;
      ] );
    ( "ext.diagnostics",
      [
        Alcotest.test_case "budget sums" `Quick test_diagnostics_sums;
        Alcotest.test_case "pure random" `Quick test_diagnostics_pure_random;
      ] );
    ( "ext.corners",
      [
        Alcotest.test_case "corner ordering" `Quick test_corner_ordering;
        Alcotest.test_case "corner pessimism" `Quick test_corner_pessimism;
      ] );
    ( "ext.path_report",
      [
        Alcotest.test_case "trace chain" `Quick test_path_trace_chain;
        Alcotest.test_case "picks dominant" `Quick
          test_path_trace_picks_dominant;
        Alcotest.test_case "top paths" `Quick test_top_paths;
      ] );
    ( "ext.multilevel",
      [
        Alcotest.test_case "extract_design compresses" `Quick
          test_extract_design_compresses;
        Alcotest.test_case "second-level analysis" `Quick
          test_second_level_analysis;
      ] );
    ( "ext.output_load",
      [
        Alcotest.test_case "increments positive" `Quick
          test_output_load_increments_positive;
        Alcotest.test_case "fanout raises delay" `Quick
          test_output_load_raises_delay;
        Alcotest.test_case "roundtrips" `Quick test_output_load_roundtrips;
      ] );
  ]
