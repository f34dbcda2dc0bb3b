(* Hierarchical-flow coverage sweep: property tests for the variable
   replacement (paper eq. 18) on randomly characterized delays, plus an
   end-to-end accuracy golden for a 2-module chained floorplan against
   flattened Monte Carlo - complementing test_hier.ml's 2x2 grid. *)

module H = Hier_ssta
module Form = Ssta_canonical.Form
module Basis = Ssta_variation.Basis
module Tile = Ssta_variation.Tile
module Build = Ssta_timing.Build
module Stats = Ssta_gauss.Stats
module Rng = Ssta_gauss.Rng

let module_build =
  lazy (Build.characterize (Ssta_circuit.Multiplier.make ~bits:4 ()))

let module_model =
  lazy (H.Extract.extract ~delta:0.05 (Lazy.force module_build))

(* A 2-module chain: instance 0's outputs drive instance 1's inputs, the
   modules abutted side by side.  Design PIs are instance 0's inputs,
   design POs instance 1's outputs - the smallest floorplan in which the
   replacement must restore inter-module correlation through a timing
   path that crosses the module boundary. *)
let chain_floorplan =
  lazy
    (let b = Lazy.force module_build in
     let model = Lazy.force module_model in
     let die_m = model.H.Timing_model.die in
     let w = Tile.width die_m and h = Tile.height die_m in
     let die = Tile.make ~x0:0.0 ~y0:0.0 ~x1:(2.0 *. w) ~y1:h in
     let inst origin label =
       { H.Floorplan.label; build = Some b; model; origin }
     in
     let n = H.Timing_model.n_inputs model in
     let connections =
       Array.init n (fun j ->
           ({ H.Floorplan.inst = 0; port = j }, { H.Floorplan.inst = 1; port = j }))
     in
     H.Floorplan.create ~die
       ~instances:[| inst (0.0, 0.0) "u0"; inst (w, 0.0) "u1" |]
       ~connections)

let chain_grid = lazy (H.Design_grid.build (Lazy.force chain_floorplan))

(* ------------------------------------------------------------------ *)
(* Replacement properties on random characterized delays               *)
(* ------------------------------------------------------------------ *)

(* A random module-basis delay form, built the same way the extraction
   characterizes edges (so the properties quantify the real pipeline, not
   a synthetic covariance). *)
let random_module_form seed =
  let b = Lazy.force module_build in
  let mbasis = b.Build.basis in
  let rng = Rng.create ~seed in
  let nominal = 20.0 +. (60.0 *. Rng.uniform rng) in
  let n_params = mbasis.Basis.n_params in
  let sens = Array.init n_params (fun _ -> 0.02 +. (0.18 *. Rng.uniform rng)) in
  let tile = Rng.int rng (Basis.n_tiles mbasis) in
  ( Basis.delay_form mbasis ~nominal ~tile ~sens ~extra_random_sigma:0.0,
    tile,
    nominal,
    sens )

(* Boxed module-basis forms of instance [inst] rewritten over the design
   basis by the slot kernel. *)
let transform dg fp ~mode ~inst forms =
  let src = Sweep_oracle.pack_like forms in
  let dst =
    Ssta_canonical.Form_buf.create dg.H.Design_grid.basis.Basis.dims
      (Array.length forms)
  in
  H.Replace.transform_into (H.Replace.pc_map dg fp ~mode ~inst) src ~dst
    ~slot:Fun.id;
  Sweep_oracle.unpack dst

let prop_replace_preserves_moments seed =
  let fp = Lazy.force chain_floorplan in
  let dg = Lazy.force chain_grid in
  let f, _, _, _ = random_module_form seed in
  let inst = seed mod 2 in
  let tf =
    (transform dg fp ~mode:H.Replace.Replaced ~inst [| f |]).(0)
  in
  (* The substitution rewrites only the correlated-local part: mean is
     copied verbatim, variance survives up to the documented eigenvalue
     clamping of the design PCA. *)
  tf.Form.mean = f.Form.mean
  && abs_float (Form.variance tf -. Form.variance f) <= 0.01 *. Form.variance f

let prop_replace_restores_cross_module_covariance seed =
  (* The same delay placed in both instances: the rewritten forms'
     covariance must match characterizing both directly over the design
     basis - the flat reference the paper's eq. (17)/(18) guarantee. *)
  let fp = Lazy.force chain_floorplan in
  let dg = Lazy.force chain_grid in
  let dbasis = dg.H.Design_grid.basis in
  let f, tile, nominal, sens = random_module_form seed in
  let rewritten inst =
    (transform dg fp ~mode:H.Replace.Replaced ~inst [| f |]).(0)
  in
  let direct inst =
    Basis.delay_form dbasis ~nominal
      ~tile:(H.Design_grid.design_tile_of_instance dg ~inst tile)
      ~sens ~extra_random_sigma:0.0
  in
  let r0 = rewritten 0 and r1 = rewritten 1 in
  let d0 = direct 0 and d1 = direct 1 in
  let cov_r = Form.covariance r0 r1 in
  let cov_d = Form.covariance d0 d1 in
  let scale = sqrt (Form.variance d0 *. Form.variance d1) in
  abs_float (cov_r -. cov_d) <= 0.03 *. Float.max 1.0 scale

let prop_global_only_covariance_is_global_part seed =
  (* In Global_only mode the cross-instance covariance must be exactly
     the shared global term - no rewritten local correlation. *)
  let fp = Lazy.force chain_floorplan in
  let dg = Lazy.force chain_grid in
  let f, _, _, _ = random_module_form seed in
  let glob inst =
    (transform dg fp ~mode:H.Replace.Global_only ~inst [| f |]).(0)
  in
  let g0 = glob 0 and g1 = glob 1 in
  let expected = Ssta_linalg.Vec.dot g0.Form.globals g1.Form.globals in
  abs_float (Form.covariance g0 g1 -. expected) <= 1e-9

(* ------------------------------------------------------------------ *)
(* End-to-end golden: 2-module chain vs flattened Monte Carlo          *)
(* ------------------------------------------------------------------ *)

let test_chain_vs_flat_mc () =
  let fp = Lazy.force chain_floorplan in
  let dg = Lazy.force chain_grid in
  let rep = H.Hier_analysis.analyze fp dg ~mode:H.Replace.Replaced in
  let d = rep.H.Hier_analysis.delay in
  let ctx = H.Hier_analysis.flatten fp dg in
  let mc = Ssta_mc.Flat_mc.run ~iterations:4000 ~seed:17 ctx in
  let delays = mc.Ssta_mc.Flat_mc.delays in
  let mc_mean = Stats.mean delays and mc_std = Stats.std delays in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.1f within 4%% of MC %.1f" d.Form.mean mc_mean)
    true
    (abs_float (d.Form.mean -. mc_mean) /. mc_mean < 0.04);
  Alcotest.(check bool)
    (Printf.sprintf "std %.1f within 20%% of MC %.1f" (Form.std d) mc_std)
    true
    (abs_float (Form.std d -. mc_std) /. mc_std < 0.20);
  (* Quantile golden: the 99% clock from the hierarchical form against
     the empirical MC quantile.  Mean and sigma errors compound here, so
     the tolerance sits between the two. *)
  let q99_hier = H.Yield.clock_for_yield d ~yield:0.99 in
  let q99_mc = Stats.quantile delays 0.99 in
  Alcotest.(check bool)
    (Printf.sprintf "q99 %.1f within 5%% of MC %.1f" q99_hier q99_mc)
    true
    (abs_float (q99_hier -. q99_mc) /. q99_mc < 0.05)

let test_chain_structure () =
  let fp = Lazy.force chain_floorplan in
  let model = Lazy.force module_model in
  let n = H.Timing_model.n_inputs model in
  Alcotest.(check int) "PIs are u0's inputs" n
    (Array.length fp.H.Floorplan.ext_inputs);
  Alcotest.(check int) "POs are u1's outputs" n
    (Array.length fp.H.Floorplan.ext_outputs);
  Array.iter
    (fun { H.Floorplan.inst; _ } ->
      Alcotest.(check int) "PI on instance 0" 0 inst)
    fp.H.Floorplan.ext_inputs;
  Array.iter
    (fun { H.Floorplan.inst; _ } ->
      Alcotest.(check int) "PO on instance 1" 1 inst)
    fp.H.Floorplan.ext_outputs

let test_chain_global_only_underestimates () =
  (* The chain couples the two instances through every timing path, so
     dropping the rewritten local correlation must shrink the spread. *)
  let fp = Lazy.force chain_floorplan in
  let dg = Lazy.force chain_grid in
  let rep = H.Hier_analysis.analyze fp dg ~mode:H.Replace.Replaced in
  let glo = H.Hier_analysis.analyze fp dg ~mode:H.Replace.Global_only in
  Alcotest.(check bool) "global-only sigma smaller" true
    (Form.std glo.H.Hier_analysis.delay < Form.std rep.H.Hier_analysis.delay)

let test prop name =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:40 ~name QCheck.(int_range 0 100_000) prop)

let suites =
  [
    ( "hier_flow.replace_properties",
      [
        test prop_replace_preserves_moments
          "replacement preserves mean exactly, variance to 1%";
        test prop_replace_restores_cross_module_covariance
          "replacement restores cross-module covariance";
        test prop_global_only_covariance_is_global_part
          "global-only covariance is exactly the global part";
      ] );
    ( "hier_flow.chain",
      [
        Alcotest.test_case "chain floorplan structure" `Quick
          test_chain_structure;
        Alcotest.test_case "vs flattened Monte Carlo" `Slow
          test_chain_vs_flat_mc;
        Alcotest.test_case "global-only underestimates" `Quick
          test_chain_global_only_underestimates;
      ] );
  ]
