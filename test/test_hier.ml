(* Tests for the paper's second contribution: hierarchical SSTA with
   independent-variable replacement (paper Section V). *)

module H = Hier_ssta
module Form = Ssta_canonical.Form
module Basis = Ssta_variation.Basis
module Tile = Ssta_variation.Tile
module Mat = Ssta_linalg.Mat
module Build = Ssta_timing.Build
module Stats = Ssta_gauss.Stats

let close ?(tol = 1e-9) msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

(* A small module that is fast to characterize and extract. *)
let module_build =
  lazy (Build.characterize (Ssta_circuit.Multiplier.make ~bits:5 ()))

let module_model = lazy (H.Extract.extract ~delta:0.05 (Lazy.force module_build))

let floorplan =
  lazy
    (H.Floorplan.mult_grid ~label:"m" ~build:(Lazy.force module_build)
       ~model:(Lazy.force module_model) ())

let design_grid = lazy (H.Design_grid.build (Lazy.force floorplan))

(* ------------------------------------------------------------------ *)
(* Floorplan                                                           *)
(* ------------------------------------------------------------------ *)

let test_mult_grid_structure () =
  let fp = Lazy.force floorplan in
  let model = Lazy.force module_model in
  let n_in = H.Timing_model.n_inputs model in
  Alcotest.(check int) "four instances" 4 (Array.length fp.H.Floorplan.instances);
  Alcotest.(check int)
    "design PIs = 2 modules' inputs" (2 * n_in)
    (Array.length fp.H.Floorplan.ext_inputs);
  Alcotest.(check int)
    "design POs = 2 modules' outputs" (2 * n_in)
    (Array.length fp.H.Floorplan.ext_outputs);
  Alcotest.(check int)
    "connections" (2 * n_in)
    (Array.length fp.H.Floorplan.connections)

let test_floorplan_rejects_overlap () =
  let b = Lazy.force module_build in
  let model = Lazy.force module_model in
  let die = model.H.Timing_model.die in
  let big =
    Tile.make ~x0:0.0 ~y0:0.0 ~x1:(4.0 *. Tile.width die)
      ~y1:(4.0 *. Tile.height die)
  in
  let inst origin label =
    { H.Floorplan.label; build = Some b; model; origin }
  in
  Alcotest.(check bool)
    "overlap rejected" true
    (try
       ignore
         (H.Floorplan.create ~die:big
            ~instances:[| inst (0.0, 0.0) "a"; inst (1.0, 1.0) "b" |]
            ~connections:[||]);
       false
     with Failure _ -> true)

let test_floorplan_rejects_outside () =
  let b = Lazy.force module_build in
  let model = Lazy.force module_model in
  let small = Tile.make ~x0:0.0 ~y0:0.0 ~x1:1.0 ~y1:1.0 in
  Alcotest.(check bool)
    "outside die rejected" true
    (try
       ignore
         (H.Floorplan.create ~die:small
            ~instances:
              [| { H.Floorplan.label = "a"; build = Some b; model; origin = (0.0, 0.0) } |]
            ~connections:[||]);
       false
     with Failure _ -> true)

let test_floorplan_rejects_double_drive () =
  let b = Lazy.force module_build in
  let model = Lazy.force module_model in
  let die = model.H.Timing_model.die in
  let w = Tile.width die and h = Tile.height die in
  let big = Tile.make ~x0:0.0 ~y0:0.0 ~x1:(3.0 *. w) ~y1:h in
  let inst origin label = { H.Floorplan.label; build = Some b; model; origin } in
  let p i q = { H.Floorplan.inst = i; port = q } in
  Alcotest.(check bool)
    "double-driven input rejected" true
    (try
       ignore
         (H.Floorplan.create ~die:big
            ~instances:[| inst (0.0, 0.0) "a"; inst (w, 0.0) "b"; inst (2.0 *. w, 0.0) "c" |]
            ~connections:[| (p 0 0, p 2 0); (p 1 0, p 2 0) |]);
       false
     with Failure _ -> true)

(* ------------------------------------------------------------------ *)
(* Design grid: the paper's key sub-block property                     *)
(* ------------------------------------------------------------------ *)

let test_design_grid_subblock_property () =
  (* The design-level covariance restricted to one instance's tiles must
     equal the module covariance C (paper eq. (17)); this is what makes the
     replacement sound. *)
  let fp = Lazy.force floorplan in
  let dg = Lazy.force design_grid in
  let b = Lazy.force module_build in
  let c_mod = Basis.local_covariance_matrix b.Build.basis in
  let c_design = Basis.local_covariance_matrix dg.H.Design_grid.basis in
  Array.iteri
    (fun inst offset ->
      let n = dg.H.Design_grid.instance_n_tiles.(inst) in
      let worst = ref 0.0 in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          worst :=
            Float.max !worst
              (abs_float
                 (Mat.get c_design (offset + i) (offset + j)
                 -. Mat.get c_mod i j))
        done
      done;
      ignore fp;
      Alcotest.(check bool)
        (Printf.sprintf "instance %d sub-block (worst %.2e)" inst !worst)
        true (!worst < 1e-9))
    dg.H.Design_grid.instance_tile_offset

let test_design_grid_abutted_no_filler () =
  (* The 2x2 abutted floorplan covers the whole die: no filler tiles. *)
  let dg = Lazy.force design_grid in
  let b = Lazy.force module_build in
  let module_tiles = Basis.n_tiles b.Build.basis in
  Alcotest.(check int)
    "tiles = 4 x module tiles" (4 * module_tiles)
    (Array.length dg.H.Design_grid.tiles)

let test_design_grid_filler_tiles () =
  (* A floorplan with one instance in the corner of a bigger die gets
     filler tiles for the uncovered area. *)
  let b = Lazy.force module_build in
  let model = Lazy.force module_model in
  let die_m = model.H.Timing_model.die in
  let big =
    Tile.make ~x0:0.0 ~y0:0.0 ~x1:(2.0 *. Tile.width die_m)
      ~y1:(2.0 *. Tile.height die_m)
  in
  let fp =
    H.Floorplan.create ~die:big
      ~instances:
        [| { H.Floorplan.label = "a"; build = Some b; model; origin = (0.0, 0.0) } |]
      ~connections:[||]
  in
  let dg = H.Design_grid.build fp in
  Alcotest.(check bool)
    "has filler tiles" true
    (Array.length dg.H.Design_grid.tiles > Basis.n_tiles b.Build.basis)

(* ------------------------------------------------------------------ *)
(* Replacement                                                         *)
(* ------------------------------------------------------------------ *)

let test_replace_preserves_variance () =
  (* Variance of every model edge form must survive the rewrite (M M^T is
     the identity on retained components). *)
  let fp = Lazy.force floorplan in
  let dg = Lazy.force design_grid in
  let model = Lazy.force module_model in
  let forms = Sweep_oracle.unpack model.H.Timing_model.forms in
  let tf =
    Test_hier_flow.transform dg fp ~mode:H.Replace.Replaced ~inst:2 forms
  in
  (* Exactly variance-preserving up to the documented PCA eigenvalue
     clamping of the (truncated-correlation) design covariance, which can
     move variances by a fraction of a percent. *)
  Array.iteri
    (fun e f_new ->
      let f_old = forms.(e) in
      let vo = Form.variance f_old and vn = Form.variance f_new in
      if abs_float (vn -. vo) > 0.01 *. vo then
        Alcotest.fail
          (Printf.sprintf "edge %d variance %g -> %g" e vo vn))
    tf

let test_replace_preserves_within_module_covariance () =
  let fp = Lazy.force floorplan in
  let dg = Lazy.force design_grid in
  let model = Lazy.force module_model in
  let forms = Sweep_oracle.unpack model.H.Timing_model.forms in
  let tf =
    Test_hier_flow.transform dg fp ~mode:H.Replace.Replaced ~inst:1 forms
  in
  let pairs = [ (0, 1); (2, 5); (1, 7) ] in
  List.iter
    (fun (a, b) ->
      if a < Array.length forms && b < Array.length forms then begin
        let co = Form.covariance forms.(a) forms.(b) in
        let cn = Form.covariance tf.(a) tf.(b) in
        close ~tol:(0.01 *. Float.max 1.0 (abs_float co))
          (Printf.sprintf "cov (%d,%d)" a b)
          co cn
      end)
    pairs

let test_replace_cross_instance_correlation () =
  (* The whole point of the replacement: the same edge placed in two
     different instances must become spatially correlated, strongly so for
     abutted neighbors, and the global-only mode must show strictly less
     covariance (only the global part). *)
  let fp = Lazy.force floorplan in
  let dg = Lazy.force design_grid in
  let model = Lazy.force module_model in
  let forms = Sweep_oracle.unpack model.H.Timing_model.forms in
  let e = 0 in
  let repl inst =
    Test_hier_flow.transform dg fp ~mode:H.Replace.Replaced ~inst forms
  in
  let glob inst =
    Test_hier_flow.transform dg fp ~mode:H.Replace.Global_only ~inst forms
  in
  let f0 = (repl 0).(e) and f1 = (repl 1).(e) in
  let g0 = (glob 0).(e) and g1 = (glob 1).(e) in
  let cov_repl = Form.covariance f0 f1 in
  let cov_glob = Form.covariance g0 g1 in
  Alcotest.(check bool)
    (Printf.sprintf "replaced cov (%g) > global-only cov (%g)" cov_repl
       cov_glob)
    true (cov_repl > cov_glob +. 1e-12);
  (* Global-only covariance is exactly the shared global part. *)
  let expected_glob =
    Ssta_linalg.Vec.dot f0.Form.globals f1.Form.globals
  in
  close ~tol:1e-9 "global-only covariance" expected_glob cov_glob

let test_replace_matches_flat_characterization () =
  (* Transforming a single-edge form must give the same covariance structure
     as characterizing the same delay directly over the design basis at the
     corresponding design tile. *)
  let fp = Lazy.force floorplan in
  let dg = Lazy.force design_grid in
  let b = Lazy.force module_build in
  let mbasis = b.Build.basis in
  let dbasis = dg.H.Design_grid.basis in
  let sens = [| 0.157; 0.053; 0.044 |] in
  let mform =
    Basis.delay_form mbasis ~nominal:50.0 ~tile:2 ~sens ~extra_random_sigma:0.0
  in
  let rewritten =
    (Test_hier_flow.transform dg fp ~mode:H.Replace.Replaced ~inst:3
       [| mform |]).(0)
  in
  let direct =
    Basis.delay_form dbasis ~nominal:50.0
      ~tile:(H.Design_grid.design_tile_of_instance dg ~inst:3 2)
      ~sens ~extra_random_sigma:0.0
  in
  (* Same variance and, crucially, the same covariance against a probe form
     placed anywhere on the design die. *)
  close
    ~tol:(0.005 *. Form.variance direct)
    "variance" (Form.variance direct) (Form.variance rewritten);
  let probe =
    Basis.delay_form dbasis ~nominal:50.0 ~tile:0 ~sens ~extra_random_sigma:0.0
  in
  close
    ~tol:(0.01 *. Float.max 1.0 (abs_float (Form.covariance direct probe)))
    "covariance vs probe"
    (Form.covariance direct probe)
    (Form.covariance rewritten probe)

(* ------------------------------------------------------------------ *)
(* Design-level analysis                                               *)
(* ------------------------------------------------------------------ *)

let test_hier_analysis_vs_mc () =
  let fp = Lazy.force floorplan in
  let dg = Lazy.force design_grid in
  let rep = H.Hier_analysis.analyze fp dg ~mode:H.Replace.Replaced in
  let ctx = H.Hier_analysis.flatten fp dg in
  let mc = Ssta_mc.Flat_mc.run ~iterations:2000 ~seed:99 ctx in
  let mc_mean = Stats.mean mc.Ssta_mc.Flat_mc.delays in
  let mc_std = Stats.std mc.Ssta_mc.Flat_mc.delays in
  let d = rep.H.Hier_analysis.delay in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.1f within 4%% of MC %.1f" d.Form.mean mc_mean)
    true
    (abs_float (d.Form.mean -. mc_mean) /. mc_mean < 0.04);
  Alcotest.(check bool)
    (Printf.sprintf "std %.1f within 15%% of MC %.1f" (Form.std d) mc_std)
    true
    (abs_float (Form.std d -. mc_std) /. mc_std < 0.15)

let test_global_only_underestimates_spread () =
  (* Paper Fig. 7: ignoring local correlation visibly distorts the
     distribution - for an abutted floorplan it underestimates sigma. *)
  let fp = Lazy.force floorplan in
  let dg = Lazy.force design_grid in
  let rep = H.Hier_analysis.analyze fp dg ~mode:H.Replace.Replaced in
  let glo = H.Hier_analysis.analyze fp dg ~mode:H.Replace.Global_only in
  Alcotest.(check bool)
    "global-only sigma smaller" true
    (Form.std glo.H.Hier_analysis.delay < Form.std rep.H.Hier_analysis.delay)

let test_hier_matches_flat_ssta () =
  (* Hierarchical analysis with models vs flat SSTA on the same design:
     the model compression should cost only a small moment shift. *)
  let fp = Lazy.force floorplan in
  let dg = Lazy.force design_grid in
  let rep = H.Hier_analysis.analyze fp dg ~mode:H.Replace.Replaced in
  let flat = H.Hier_analysis.flat_form fp dg in
  let d = rep.H.Hier_analysis.delay in
  close ~tol:(0.03 *. flat.Form.mean) "mean vs flat SSTA" flat.Form.mean
    d.Form.mean;
  close ~tol:(0.1 *. Form.std flat) "std vs flat SSTA" (Form.std flat)
    (Form.std d)

let test_hier_po_delays () =
  let fp = Lazy.force floorplan in
  let dg = Lazy.force design_grid in
  let rep = H.Hier_analysis.analyze fp dg ~mode:H.Replace.Replaced in
  Alcotest.(check int)
    "one delay per PO"
    (Array.length fp.H.Floorplan.ext_outputs)
    (Array.length rep.H.Hier_analysis.po_delays);
  (* The last product bits go through two multipliers: all POs reachable. *)
  Array.iter
    (fun d -> Alcotest.(check bool) "po reachable" true (d <> None))
    rep.H.Hier_analysis.po_delays

(* ------------------------------------------------------------------ *)
(* Yield                                                               *)
(* ------------------------------------------------------------------ *)

let test_yield () =
  let f =
    Form.make ~mean:100.0 ~globals:[| 5.0 |] ~pcs:[| 0.0 |] ~rand:0.0
  in
  close ~tol:1e-6 "yield at mean" 0.5 (Form.cdf f 100.0);
  let c = H.Yield.clock_for_yield f ~yield:0.9 in
  close ~tol:1e-6 "clock roundtrip" 0.9 (Form.cdf f c);
  close "empirical" 0.75
    (H.Yield.empirical [| 1.0; 2.0; 3.0; 4.0 |] ~clock:3.0)

let suites =
  [
    ( "hier.floorplan",
      [
        Alcotest.test_case "mult grid structure" `Quick test_mult_grid_structure;
        Alcotest.test_case "rejects overlap" `Quick test_floorplan_rejects_overlap;
        Alcotest.test_case "rejects outside" `Quick test_floorplan_rejects_outside;
        Alcotest.test_case "rejects double drive" `Quick
          test_floorplan_rejects_double_drive;
      ] );
    ( "hier.design_grid",
      [
        Alcotest.test_case "sub-block property (eq. 17)" `Quick
          test_design_grid_subblock_property;
        Alcotest.test_case "abutted: no filler" `Quick
          test_design_grid_abutted_no_filler;
        Alcotest.test_case "filler tiles" `Quick test_design_grid_filler_tiles;
      ] );
    ( "hier.replace",
      [
        Alcotest.test_case "variance preserved" `Quick
          test_replace_preserves_variance;
        Alcotest.test_case "within-module covariance" `Quick
          test_replace_preserves_within_module_covariance;
        Alcotest.test_case "cross-instance correlation" `Quick
          test_replace_cross_instance_correlation;
        Alcotest.test_case "matches flat characterization" `Quick
          test_replace_matches_flat_characterization;
      ] );
    ( "hier.analysis",
      [
        Alcotest.test_case "vs Monte Carlo" `Slow test_hier_analysis_vs_mc;
        Alcotest.test_case "global-only underestimates" `Quick
          test_global_only_underestimates_spread;
        Alcotest.test_case "vs flat SSTA" `Quick test_hier_matches_flat_ssta;
        Alcotest.test_case "po delays" `Quick test_hier_po_delays;
      ] );
    ("hier.yield", [ Alcotest.test_case "yield utilities" `Quick test_yield ]);
  ]
