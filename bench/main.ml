(* Benchmark harness regenerating every table and figure of the paper's
   evaluation (Section VI) plus the ablations called out in DESIGN.md, and
   the ~1M-gate scale run.  Performance is measured by the ledger benchmark
   in bench/ledger (see its README.md); this harness only prints.

   Usage:
     dune exec bench/main.exe                 # everything, default budgets
     dune exec bench/main.exe table1          # Table I only
     dune exec bench/main.exe fig6 fig7       # selected experiments
     MC_ITERS=10000 dune exec bench/main.exe  # paper-scale Monte Carlo

   Monte Carlo iteration counts default to a single-core-friendly budget;
   the paper used 10,000 iterations (see EXPERIMENTS.md).  MC_ITERS must be
   a positive integer. *)

module H = Hier_ssta
module Form = Ssta_canonical.Form
module Build = Ssta_timing.Build
module Stats = Ssta_gauss.Stats
module Iscas = Ssta_circuit.Iscas
module N = Ssta_circuit.Netlist

(* Rejected at startup, before any experiment spends time characterizing:
   the Monte Carlo engines refuse a non-positive iteration count. *)
let mc_iters =
  match Sys.getenv_opt "MC_ITERS" with
  | None -> 1000
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | _ ->
          Printf.eprintf "MC_ITERS must be a positive integer, got %S\n" s;
          exit 1)

let delta = 0.05

let header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* ------------------------------------------------------------------ *)
(* Table I: results of timing model extraction                         *)
(* ------------------------------------------------------------------ *)

let table1_row name =
  let nl = Iscas.build name in
  let b = Build.characterize nl in
  let model = H.Extract.extract ~delta b in
  let stats = model.H.Timing_model.stats in
  let io = H.Timing_model.io_delays model in
  let mc =
    Ssta_mc.Allpairs_mc.run ~iterations:mc_iters ~seed:42
      (Ssta_mc.Sampler.ctx_of_build b)
  in
  let { H.Timing_model.mean_err = merr; sigma_err = verr; _ } =
    H.Timing_model.io_accuracy
      ~reference:(Ssta_mc.Allpairs_mc.pair_moments mc) io
  in
  let pe, pv = H.Timing_model.compression model in
  let paper = Iscas.paper_row name in
  Printf.printf
    "%-6s %5d %5d %5d %5d  %4.0f%% %4.0f%%  %5.2f%% %5.2f%%  %7.2f  | %5d %5d\n"
    name stats.H.Timing_model.original_edges
    stats.H.Timing_model.original_vertices stats.H.Timing_model.model_edges
    stats.H.Timing_model.model_vertices (100.0 *. pe) (100.0 *. pv)
    (100.0 *. merr) (100.0 *. verr)
    stats.H.Timing_model.extraction_seconds paper.Iscas.eo paper.Iscas.vo;
  (pe, pv, merr, verr)

let run_table1 () =
  header
    (Printf.sprintf
       "Table I: timing model extraction (delta=%.2f, MC=%d iterations)"
       delta mc_iters);
  Printf.printf
    "%-6s %5s %5s %5s %5s  %5s %5s  %6s %6s  %7s  | %s\n" "name" "Eo" "Vo"
    "Em" "Vm" "pe" "pv" "merr" "verr" "T(s)" "paper Eo/Vo";
  let acc = ref (0.0, 0.0, 0.0, 0.0) in
  let n = Array.length Iscas.names in
  Array.iter
    (fun name ->
      let pe, pv, me, ve = table1_row name in
      let a, b, c, d = !acc in
      acc := (a +. pe, b +. pv, c +. me, d +. ve))
    Iscas.names;
  let a, b, c, d = !acc in
  let fn = float_of_int n in
  Printf.printf
    "%-6s %29s  %4.0f%% %4.0f%%  %5.2f%% %5.2f%%   (paper: 20%% 19%% 0.59%% 1.06%%)\n"
    "avg" "" (100.0 *. a /. fn) (100.0 *. b /. fn) (100.0 *. c /. fn)
    (100.0 *. d /. fn)

(* ------------------------------------------------------------------ *)
(* Fig. 6: criticality histogram for c7552                             *)
(* ------------------------------------------------------------------ *)

let run_fig6 () =
  header "Fig. 6: edge criticality histogram (c7552, 20 bins)";
  let b = Build.characterize (Iscas.build "c7552") in
  let _, crit =
    H.Extract.extract_with_criticality ~exact:true ~delta b
  in
  let cm = crit.H.Criticality.cm in
  let hist = Stats.histogram ~lo:0.0 ~hi:1.0 ~bins:20 cm in
  let total = Array.fold_left ( + ) 0 hist in
  Printf.printf "criticality bin     count  histogram\n";
  Array.iteri
    (fun i c ->
      let lo = float_of_int i /. 20.0 and hi = float_of_int (i + 1) /. 20.0 in
      Printf.printf "[%4.2f, %4.2f%c  %7d  %s\n" lo hi
        (if i = 19 then ']' else ')')
        c
        (String.make (max 0 (c * 60 / max 1 total)) '#'))
    hist;
  Printf.printf
    "edges=%d; extreme bins hold %.0f%% of mass (paper: strongly bimodal)\n"
    total
    (100.0 *. float_of_int (hist.(0) + hist.(19)) /. float_of_int total)

(* ------------------------------------------------------------------ *)
(* Fig. 7: hierarchical timing analysis of 4 x c6288                   *)
(* ------------------------------------------------------------------ *)

let run_fig7 () =
  header
    (Printf.sprintf "Fig. 7: hierarchical SSTA, 2x2 c6288 (MC=%d iterations)"
       mc_iters);
  let nl = Iscas.build "c6288" in
  let b = Build.characterize nl in
  let t0 = Unix.gettimeofday () in
  let model = H.Extract.extract ~delta b in
  Printf.printf "model extraction: %.2fs (%d -> %d edges)\n"
    (Unix.gettimeofday () -. t0)
    model.H.Timing_model.stats.H.Timing_model.original_edges
    model.H.Timing_model.stats.H.Timing_model.model_edges;
  let fp = H.Floorplan.mult_grid ~label:"c6288" ~build:b ~model () in
  let dg = H.Design_grid.build fp in
  let rep = H.Hier_analysis.analyze fp dg ~mode:H.Replace.Replaced in
  let glo = H.Hier_analysis.analyze fp dg ~mode:H.Replace.Global_only in
  let ctx = H.Hier_analysis.flatten fp dg in
  let mc = Ssta_mc.Flat_mc.run ~iterations:mc_iters ~seed:7 ctx in
  let delays = mc.Ssta_mc.Flat_mc.delays in
  let mc_mean = Stats.mean delays and mc_std = Stats.std delays in
  let d = rep.H.Hier_analysis.delay and g = glo.H.Hier_analysis.delay in
  Printf.printf "Monte Carlo (flattened):  mean=%8.1f  std=%7.1f  (%.2fs)\n"
    mc_mean mc_std mc.Ssta_mc.Flat_mc.wall_seconds;
  Printf.printf
    "proposed method:          mean=%8.1f  std=%7.1f  (%.4fs propagation + \
     %.4fs one-time setup)\n"
    d.Form.mean (Form.std d) rep.H.Hier_analysis.propagate_seconds
    rep.H.Hier_analysis.setup_seconds;
  Printf.printf "global correlation only:  mean=%8.1f  std=%7.1f\n"
    g.Form.mean (Form.std g);
  (* CDF series over normalized delay, like the paper's plot. *)
  let lo = Stats.quantile delays 0.0005 and hi = Stats.quantile delays 0.9995 in
  let span = hi -. lo in
  let lo = lo -. (0.05 *. span) and hi = hi +. (0.05 *. span) in
  Printf.printf
    "\nnormalized delay |  MC    proposed  global-only   (CDF series)\n";
  let points = 21 in
  for i = 0 to points - 1 do
    let x =
      lo +. ((hi -. lo) *. float_of_int i /. float_of_int (points - 1))
    in
    let xn = (x -. lo) /. (hi -. lo) in
    Printf.printf "      %4.2f       | %5.3f   %5.3f     %5.3f\n" xn
      (H.Yield.empirical delays ~clock:x)
      (Form.cdf d x) (Form.cdf g x)
  done;
  (* The paper's speedup claim: hierarchical propagation vs flattened MC at
     10,000 iterations (scale measured cost if fewer iterations were run). *)
  let mc10k =
    mc.Ssta_mc.Flat_mc.wall_seconds *. (10000.0 /. float_of_int mc_iters)
  in
  Printf.printf
    "\nspeedup vs MC at 10k iters (%s, %.1fs): %.0fx per analysis \
     (propagation), %.0fx including one-time setup\n"
    (if mc_iters >= 10000 then "measured" else "extrapolated")
    mc10k
    (mc10k /. rep.H.Hier_analysis.propagate_seconds)
    (mc10k /. rep.H.Hier_analysis.wall_seconds);
  Printf.printf
    "ks distance MC vs proposed:     %.4f\nks distance MC vs global-only:  %.4f\n"
    (Stats.ks_distance delays (Form.cdf d))
    (Stats.ks_distance delays (Form.cdf g))

(* ------------------------------------------------------------------ *)
(* Ablation: criticality threshold delta (model size vs accuracy)      *)
(* ------------------------------------------------------------------ *)

let run_ablation_delta () =
  header "Ablation: delta sweep on c1908 (size vs accuracy tradeoff)";
  let b = Build.characterize (Iscas.build "c1908") in
  let g = b.Build.graph in
  (* Reference: full-graph SSTA IO delays, one exclusive forward sweep per
     input through a single reused workspace (the same kernel path the
     extraction itself runs on). *)
  let reference =
    let ws = H.Propagate.create_workspace () in
    let source1 = [| 0 |] in
    Array.map
      (fun input ->
        source1.(0) <- input;
        H.Propagate.forward_into ws g ~forms:b.Build.forms ~sources:source1;
        Array.map (fun out -> H.Propagate.ws_form ws out)
          g.Ssta_timing.Tgraph.outputs)
      g.Ssta_timing.Tgraph.inputs
  in
  Printf.printf "%-8s %5s %5s %5s %5s  %8s %8s  %6s\n" "delta" "Em" "Vm" "pe%"
    "pv%" "merr%" "verr%" "T(s)";
  List.iter
    (fun d ->
      let model = H.Extract.extract ~delta:d b in
      let io = H.Timing_model.io_delays model in
      let { H.Timing_model.mean_err = merr; sigma_err = verr; _ } =
        H.Timing_model.io_accuracy io ~reference:(fun i j ->
            Option.map
              (fun r -> (r.Form.mean, Form.std r))
              reference.(i).(j))
      in
      let pe, pv = H.Timing_model.compression model in
      let s = model.H.Timing_model.stats in
      Printf.printf "%-8g %5d %5d %5.0f %5.0f  %8.3f %8.3f  %6.2f\n" d
        s.H.Timing_model.model_edges s.H.Timing_model.model_vertices
        (100. *. pe) (100. *. pv) (100. *. merr) (100. *. verr)
        s.H.Timing_model.extraction_seconds)
    [ 0.3; 0.1; 0.05; 0.01; 0.001 ]

(* ------------------------------------------------------------------ *)
(* Ablation: grid granularity at design level                          *)
(* ------------------------------------------------------------------ *)

let run_ablation_grid () =
  header "Ablation: grid granularity (cells/grid) on a 2x2 8-bit multiplier";
  Printf.printf "%-12s %6s %6s  %10s %10s  %10s\n" "cells/grid" "tiles"
    "dim" "hier mean" "hier std" "mc std";
  List.iter
    (fun budget ->
      let nl = Ssta_circuit.Multiplier.make ~bits:8 () in
      let b = Build.characterize ~cells_per_tile:budget nl in
      let model = H.Extract.extract ~delta b in
      let fp = H.Floorplan.mult_grid ~label:"m8" ~build:b ~model () in
      let dg = H.Design_grid.build fp in
      let rep = H.Hier_analysis.analyze fp dg ~mode:H.Replace.Replaced in
      let ctx = H.Hier_analysis.flatten fp dg in
      let mc =
        Ssta_mc.Flat_mc.run ~iterations:(max 500 (mc_iters / 2)) ~seed:3 ctx
      in
      let d = rep.H.Hier_analysis.delay in
      Printf.printf "%-12d %6d %6d  %10.1f %10.2f  %10.2f\n" budget
        (Array.length dg.H.Design_grid.tiles)
        dg.H.Design_grid.basis.Ssta_variation.Basis.dims.Form.n_pcs
        d.Form.mean (Form.std d)
        (Stats.std mc.Ssta_mc.Flat_mc.delays))
    [ 50; 100; 400 ]

(* ------------------------------------------------------------------ *)
(* Convergence: Table I accuracy columns vs MC depth                   *)
(* ------------------------------------------------------------------ *)

let run_convergence () =
  header
    "Convergence: c432 model accuracy vs Monte Carlo iterations (noise floor)";
  let b = Build.characterize (Iscas.build "c432") in
  let model = H.Extract.extract ~delta b in
  let io = H.Timing_model.io_delays model in
  Printf.printf "%-10s %8s %8s   %s\n" "MC iters" "merr%" "verr%"
    "(1/sqrt(2N) noise floor on sigma)";
  List.iter
    (fun iters ->
      let mc =
        Ssta_mc.Allpairs_mc.run ~iterations:iters ~seed:42
          (Ssta_mc.Sampler.ctx_of_build b)
      in
      let { H.Timing_model.mean_err = merr; sigma_err = verr; _ } =
        H.Timing_model.io_accuracy
          ~reference:(Ssta_mc.Allpairs_mc.pair_moments mc) io
      in
      Printf.printf "%-10d %8.2f %8.2f   %.2f%%\n" iters (100.0 *. merr)
        (100.0 *. verr)
        (100.0 /. sqrt (2.0 *. float_of_int iters)))
    [ 250; 1000; 4000; 10000 ]

(* ------------------------------------------------------------------ *)
(* Ablation: corner STA pessimism vs SSTA                              *)
(* ------------------------------------------------------------------ *)

let run_ablation_corners () =
  header "Ablation: corner-based STA pessimism vs SSTA (paper Section I)";
  Printf.printf "%-6s %10s %10s %10s %10s  %8s\n" "name" "nominal"
    "+3s corner" "glob corner" "ssta q99.87" "margin x";
  List.iter
    (fun name ->
      let b = Build.characterize (Iscas.build name) in
      let p = H.Corners.pessimism b in
      Printf.printf "%-6s %10.1f %10.1f %10.1f %10.1f  %8.2f\n" name
        p.H.Corners.nominal p.H.Corners.slow3 p.H.Corners.global_slow3
        p.H.Corners.ssta_q9987 p.H.Corners.margin_ratio)
    [ "c432"; "c880"; "c1908"; "c6288" ]

(* ------------------------------------------------------------------ *)
(* Scale: ~1M-gate extraction under a bounded footprint                *)
(* ------------------------------------------------------------------ *)

(* Peak resident set (VmHWM) in MB; NaN where /proc is unavailable. *)
let rss_peak_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> nan
  | ic ->
      let v = ref nan in
      (try
         while true do
           let l = input_line ic in
           if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
             Scanf.sscanf
               (String.sub l 6 (String.length l - 6))
               " %f kB"
               (fun k -> v := k /. 1024.0)
         done
       with End_of_file | Scanf.Scan_failure _ | Failure _ -> ());
      close_in ic;
      !v

(* The scale claim behind the slab storage: a ~1M-gate synthetic design
   goes through characterize + auto-tiled criticality + extraction in one
   process, and the wall time and peak RSS are printed.  The backward tile
   is auto-sized from a byte budget, so the criticality screen's storage
   stays bounded no matter the design size; this run provisions 2 GB for
   it (see below), with CRIT_TILE_BUDGET_MB as the override. *)
let run_million () =
  header "Scale: ~1M-gate extraction under a bounded footprint";
  let t0 = Unix.gettimeofday () in
  let nl = Ssta_circuit.Large.million () in
  let netlist_s = Unix.gettimeofday () -. t0 in
  let gates = Array.length nl.N.gates in
  Printf.printf "netlist: %d gates (%.1f s)\n%!" gates netlist_s;
  let t0 = Unix.gettimeofday () in
  let b = Build.characterize ~cells_per_tile:65536 nl in
  let characterize_s = Unix.gettimeofday () -. t0 in
  let g = b.Build.graph in
  let edges = Ssta_timing.Tgraph.n_edges g in
  let nv = Ssta_timing.Tgraph.n_vertices g in
  let dims = b.Build.basis.Ssta_variation.Basis.dims in
  let stride = dims.Form.n_globals + dims.Form.n_pcs + 2 in
  (* Screen storage budget for the acceptance run: one retained output
     slot costs ~570 MB at this scale (1.05M vertices, stride 65), so
     the user-default 256 MB budget degrades to tile 1 - 32 output
     tiles, each re-running all 32 forward sweeps, which is exactly the
     forward-sweep wall the committed 916 s run sat behind.  The 1M run
     provisions 2 GB of the 4 GB RSS ceiling for the screen slab
     (tile 3, 11 tiles, one third the forward sweeps).  An explicit
     CRIT_TILE_BUDGET_MB still wins: the variable is only set when
     unset, and Criticality.compute reads it on every call. *)
  if Sys.getenv_opt "CRIT_TILE_BUDGET_MB" = None then
    Unix.putenv "CRIT_TILE_BUDGET_MB" "2048";
  let tile =
    H.Criticality.auto_tile ~n_vertices:nv ~n_edges:edges ~stride ()
  in
  Printf.printf
    "characterized: %d edges, %d vertices, %d PCs (%.1f s); backward tile \
     auto=%d\n\
     %!"
    edges nv dims.Form.n_pcs characterize_s tile;
  let t0 = Unix.gettimeofday () in
  let model = H.Extract.extract ~delta b in
  let extract_s = Unix.gettimeofday () -. t0 in
  let model_edges = model.H.Timing_model.stats.H.Timing_model.model_edges in
  let rss = rss_peak_mb () in
  Printf.printf "extract: %d -> %d edges (%.1f s); peak RSS %.0f MB\n" edges
    model_edges extract_s rss

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("table1", run_table1);
    ("fig6", run_fig6);
    ("fig7", run_fig7);
    ("ablation-delta", run_ablation_delta);
    ("ablation-grid", run_ablation_grid);
    ("ablation-corners", run_ablation_corners);
    ("convergence", run_convergence);
    ("million", run_million);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst experiments
  in
  List.iter
    (fun name ->
      if not (List.mem_assoc name experiments) then begin
        Printf.eprintf "unknown experiment %s; available: %s\n" name
          (String.concat ", " (List.map fst experiments));
        exit 1
      end)
    requested;
  List.iter (fun name -> (List.assoc name experiments) ()) requested
