(* Integration tests: the paper's three experiments end-to-end at reduced
   scale (the full-scale versions live in bench/main.ml). *)

module H = Hier_ssta
module Form = Ssta_canonical.Form
module Build = Ssta_timing.Build
module Stats = Ssta_gauss.Stats

(* ------------------------------------------------------------------ *)
(* Table I (lite): extraction compression + accuracy vs Monte Carlo    *)
(* ------------------------------------------------------------------ *)

let table1_lite name max_merr max_verr =
  let nl = Ssta_circuit.Iscas.build name in
  let b = Build.characterize nl in
  let model = H.Extract.extract ~delta:0.05 b in
  let io = H.Timing_model.io_delays model in
  let mc =
    Ssta_mc.Allpairs_mc.run ~iterations:1500 ~seed:42
      (Ssta_mc.Sampler.ctx_of_build b)
  in
  let { H.Timing_model.mean_err = merr; sigma_err = verr; _ } =
    H.Timing_model.io_accuracy
      ~reference:(Ssta_mc.Allpairs_mc.pair_moments mc) io
  in
  let pe, pv = H.Timing_model.compression model in
  Alcotest.(check bool)
    (Printf.sprintf "%s compresses (pe=%.0f%%, pv=%.0f%%)" name (100. *. pe)
       (100. *. pv))
    true
    (pe < 0.6 && pv < 0.6);
  Alcotest.(check bool)
    (Printf.sprintf "%s merr %.2f%% < %.1f%%" name (100. *. merr)
       (100. *. max_merr))
    true (merr < max_merr);
  Alcotest.(check bool)
    (Printf.sprintf "%s verr %.2f%% < %.1f%%" name (100. *. verr)
       (100. *. max_verr))
    true (verr < max_verr)

(* MC noise at 1500 iterations puts a floor around 1% mean / 4% std; the
   thresholds leave headroom above the paper's 10k-iteration numbers. *)
let test_table1_c432 () = table1_lite "c432" 0.02 0.08
let test_table1_c499 () = table1_lite "c499" 0.02 0.08

(* ------------------------------------------------------------------ *)
(* Fig. 6 (lite): criticality histogram is bimodal                     *)
(* ------------------------------------------------------------------ *)

let test_fig6_lite () =
  (* c1908-like random logic shows the paper's bimodal shape; perfectly
     balanced circuits (c499's XOR trees) legitimately do not, because every
     path is statistically tied. *)
  let b = Build.characterize (Ssta_circuit.Iscas.build "c1908") in
  let _, crit = H.Extract.extract_with_criticality ~exact:true ~delta:0.05 b in
  let hist =
    Stats.histogram ~lo:0.0 ~hi:1.0 ~bins:20 crit.H.Criticality.cm
  in
  let total = Array.fold_left ( + ) 0 hist in
  Alcotest.(check int)
    "histogram covers all edges"
    (Array.length crit.H.Criticality.cm)
    total;
  (* Paper Fig. 6: mass concentrates in the extreme bins. *)
  let extreme = hist.(0) + hist.(1) + hist.(18) + hist.(19) in
  Alcotest.(check bool)
    (Printf.sprintf "extreme bins hold most mass (%d/%d)" extreme total)
    true
    (float_of_int extreme /. float_of_int total > 0.5)

(* ------------------------------------------------------------------ *)
(* Fig. 7 (lite): hierarchical CDF vs MC vs global-only                *)
(* ------------------------------------------------------------------ *)

let test_fig7_lite () =
  let b = Build.characterize (Ssta_circuit.Multiplier.make ~bits:6 ()) in
  let model = H.Extract.extract ~delta:0.05 b in
  let fp = H.Floorplan.mult_grid ~label:"m6" ~build:b ~model () in
  let dg = H.Design_grid.build fp in
  let rep = H.Hier_analysis.analyze fp dg ~mode:H.Replace.Replaced in
  let glo = H.Hier_analysis.analyze fp dg ~mode:H.Replace.Global_only in
  let ctx = H.Hier_analysis.flatten fp dg in
  let mc = Ssta_mc.Flat_mc.run ~iterations:2500 ~seed:7 ctx in
  let delays = mc.Ssta_mc.Flat_mc.delays in
  let mc_mean = Stats.mean delays and mc_std = Stats.std delays in
  let d = rep.H.Hier_analysis.delay in
  (* Proposed method tracks MC... *)
  Alcotest.(check bool)
    (Printf.sprintf "mean: hier %.1f vs mc %.1f" d.Form.mean mc_mean)
    true
    (abs_float (d.Form.mean -. mc_mean) /. mc_mean < 0.04);
  Alcotest.(check bool)
    (Printf.sprintf "std: hier %.1f vs mc %.1f" (Form.std d) mc_std)
    true
    (abs_float (Form.std d -. mc_std) /. mc_std < 0.15);
  (* ...and the global-only baseline visibly does not (paper's point). *)
  let gstd = Form.std glo.H.Hier_analysis.delay in
  Alcotest.(check bool)
    (Printf.sprintf "global-only std %.1f below hier std %.1f" gstd
       (Form.std d))
    true
    (gstd < 0.92 *. Form.std d);
  (* CDF agreement at a few quantiles. *)
  List.iter
    (fun p ->
      let q_mc = Stats.quantile delays p in
      let q_h = Form.quantile d p in
      Alcotest.(check bool)
        (Printf.sprintf "q%.2f: %.1f vs %.1f" p q_h q_mc)
        true
        (abs_float (q_h -. q_mc) /. q_mc < 0.05))
    [ 0.1; 0.5; 0.9 ]

let test_fig7_speedup () =
  (* Hierarchical propagation must beat per-iteration flattened MC by a wide
     margin; at full c6288 scale the bench shows 2-3 orders of magnitude. *)
  let b = Build.characterize (Ssta_circuit.Multiplier.make ~bits:6 ()) in
  let model = H.Extract.extract ~delta:0.05 b in
  let fp = H.Floorplan.mult_grid ~label:"m6" ~build:b ~model () in
  let dg = H.Design_grid.build fp in
  let rep = H.Hier_analysis.analyze fp dg ~mode:H.Replace.Replaced in
  let ctx = H.Hier_analysis.flatten fp dg in
  let mc = Ssta_mc.Flat_mc.run ~iterations:1000 ~seed:3 ctx in
  Alcotest.(check bool)
    (Printf.sprintf "hier %.3fs much faster than MC %.3fs"
       rep.H.Hier_analysis.wall_seconds mc.Ssta_mc.Flat_mc.wall_seconds)
    true
    (rep.H.Hier_analysis.wall_seconds < mc.Ssta_mc.Flat_mc.wall_seconds)

(* ------------------------------------------------------------------ *)
(* Full pipeline reproducibility                                        *)
(* ------------------------------------------------------------------ *)

let test_pipeline_deterministic () =
  let run () =
    let b = Build.characterize (Ssta_circuit.Iscas.build "c432") in
    let model = H.Extract.extract ~delta:0.05 b in
    let io = H.Timing_model.io_delays model in
    match io.(0) |> Array.to_list |> List.filter_map Fun.id with
    | f :: _ -> (f.Form.mean, Form.std f)
    | [] -> (0.0, 0.0)
  in
  let m1, s1 = run () and m2, s2 = run () in
  Alcotest.(check (float 0.0)) "deterministic mean" m1 m2;
  Alcotest.(check (float 0.0)) "deterministic std" s1 s2

let suites =
  [
    ( "integration",
      [
        Alcotest.test_case "Table I lite: c432" `Slow test_table1_c432;
        Alcotest.test_case "Table I lite: c499" `Slow test_table1_c499;
        Alcotest.test_case "Fig 6 lite: bimodal histogram" `Slow
          test_fig6_lite;
        Alcotest.test_case "Fig 7 lite: CDF vs MC" `Slow test_fig7_lite;
        Alcotest.test_case "Fig 7: speedup" `Slow test_fig7_speedup;
        Alcotest.test_case "pipeline deterministic" `Quick
          test_pipeline_deterministic;
      ] );
  ]
