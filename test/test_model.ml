(* Tests for the paper's first contribution: canonical propagation,
   criticality analysis, graph reduction and timing-model extraction
   (paper Sections III and IV). *)

module Propagate = Hier_ssta.Propagate
module Criticality = Hier_ssta.Criticality
module Reduce = Hier_ssta.Reduce
module Extract = Hier_ssta.Extract
module Timing_model = Hier_ssta.Timing_model
module Tgraph = Ssta_timing.Tgraph
module Build = Ssta_timing.Build
module Form = Ssta_canonical.Form

let close ?(tol = 1e-9) msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

let dims = { Form.n_globals = 1; n_pcs = 2 }

let det v = Form.constant dims v

let noisy mean =
  (* 5% global, 5% local-ish, 2% random spread. *)
  Form.make ~mean
    ~globals:[| 0.05 *. mean |]
    ~pcs:[| 0.05 *. mean; 0.0 |]
    ~rand:(0.02 *. mean)

(* ------------------------------------------------------------------ *)
(* Propagation                                                         *)
(* ------------------------------------------------------------------ *)

let diamond weights =
  ( Tgraph.make ~n_vertices:5
      ~edges:[| (0, 2); (0, 3); (1, 3); (2, 4); (3, 4) |]
      ~inputs:[| 0; 1 |] ~outputs:[| 4 |],
    weights )

let test_propagate_deterministic_matches_sta () =
  let g, forms =
    diamond [| det 1.0; det 10.0; det 2.0; det 5.0; det 1.0 |]
  in
  let arr = Sweep_oracle.kernel_forward g ~forms ~sources:g.Tgraph.inputs in
  (match arr.(4) with
  | Some f -> close "deterministic arrival" 11.0 f.Form.mean
  | None -> Alcotest.fail "output unreachable");
  match arr.(2) with
  | Some f -> close "mid arrival" 1.0 f.Form.mean
  | None -> Alcotest.fail "vertex 2 unreachable"

let test_propagate_exclusive_sources () =
  let g, forms =
    diamond [| det 1.0; det 10.0; det 2.0; det 5.0; det 1.0 |]
  in
  let arr = Sweep_oracle.kernel_forward g ~forms ~sources:[| 1 |] in
  Alcotest.(check bool) "2 unreachable" true (arr.(2) = None);
  match arr.(4) with
  | Some f -> close "arrival from input 1" 3.0 f.Form.mean
  | None -> Alcotest.fail "output unreachable from 1"

let test_propagate_backward () =
  let g, forms =
    diamond [| det 1.0; det 10.0; det 2.0; det 5.0; det 1.0 |]
  in
  let req = Sweep_oracle.kernel_backward_to g ~forms 4 in
  (match req.(0) with
  | Some f -> close "required at 0" 11.0 f.Form.mean
  | None -> Alcotest.fail "0 cannot reach output");
  match req.(4) with
  | Some f -> close "required at output" 0.0 f.Form.mean
  | None -> Alcotest.fail "output misses itself"

let test_propagate_max_includes_variance () =
  (* Statistical max of two equal-mean, weakly-correlated paths exceeds the
     deterministic value. *)
  let g, forms =
    diamond [| noisy 5.0; noisy 4.0; noisy 2.0; noisy 5.0; noisy 6.0 |]
  in
  let arr = Sweep_oracle.kernel_forward g ~forms ~sources:g.Tgraph.inputs in
  match arr.(4) with
  | Some f ->
      Alcotest.(check bool) "mean above deterministic" true (f.Form.mean > 10.0);
      Alcotest.(check bool) "has variance" true (Form.std f > 0.0)
  | None -> Alcotest.fail "unreachable"

let test_scalar_summaries () =
  let g, forms =
    diamond [| det 1.0; det 10.0; det 2.0; det 5.0; det 1.0 |]
  in
  let n = Tgraph.n_vertices g in
  let ws = Propagate.create_workspace () in
  Propagate.forward_into ws g ~forms:(Sweep_oracle.pack_like forms) ~sources:[| 1 |];
  let row = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout
      (Propagate.stat_stride * n) in
  Propagate.scalar_stats_into ws ~n ~into:row;
  let col k = Array.init n (fun v -> row.{(Propagate.stat_stride * v) + k}) in
  let mu = col Propagate.stat_mu and sigma = col Propagate.stat_sigma in
  Alcotest.(check bool) "unreachable is nan" true
    (List.for_all
       (fun k -> Float.is_nan (col k).(2))
       Propagate.[ stat_mu; stat_sigma; stat_var; stat_rand ]);
  close "mu at 4" 3.0 mu.(4);
  close "sigma deterministic" 0.0 sigma.(4);
  let want_mu, want_sigma =
    Sweep_oracle.scalar_summaries
      (Sweep_oracle.forward g ~forms ~sources:[| 1 |])
  in
  Alcotest.(check bool)
    "= oracle" true
    (Array.for_all2 (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)
       (Array.append mu sigma)
       (Array.append want_mu want_sigma))

(* ------------------------------------------------------------------ *)
(* Criticality                                                         *)
(* ------------------------------------------------------------------ *)

let test_criticality_dominant_path () =
  (* Diamond where path 0->3->4 strongly dominates 0->2->4. *)
  let g, forms =
    diamond [| noisy 1.0; noisy 10.0; noisy 2.0; noisy 1.0; noisy 10.0 |]
  in
  let r =
    Criticality.compute ~exact:true ~delta:0.05 g
      ~forms:(Sweep_oracle.pack_like forms)
  in
  (* Edge 1 = (0,3) and edge 4 = (3,4) are on the dominant path. *)
  Alcotest.(check bool) "dominant kept" true r.Criticality.keep.(1);
  Alcotest.(check bool) "dominant kept" true r.Criticality.keep.(4);
  Alcotest.(check bool)
    "dominant criticality high" true
    (r.Criticality.cm.(1) > 0.9);
  (* Edge 0 = (0,2) and edge 3 = (2,4) are far off the pace. *)
  Alcotest.(check bool) "dominated removed" true (not r.Criticality.keep.(0));
  Alcotest.(check bool)
    "dominated criticality low" true
    (r.Criticality.cm.(0) < 0.05)

let test_criticality_chain_all_critical () =
  (* A single chain: every edge has criticality 1. *)
  let g =
    Tgraph.make ~n_vertices:4
      ~edges:[| (0, 1); (1, 2); (2, 3) |]
      ~inputs:[| 0 |] ~outputs:[| 3 |]
  in
  let forms = [| noisy 1.0; noisy 2.0; noisy 3.0 |] in
  let r =
    Criticality.compute ~exact:true ~delta:0.05 g
      ~forms:(Sweep_oracle.pack_like forms)
  in
  Array.iteri
    (fun e k ->
      Alcotest.(check bool) (Printf.sprintf "edge %d kept" e) true k;
      close ~tol:1e-6
        (Printf.sprintf "edge %d criticality 1" e)
        1.0 r.Criticality.cm.(e))
    r.Criticality.keep

let test_criticality_balanced_half () =
  (* Two statistically identical parallel paths: each has criticality ~0.5
     under any tie-breaking, so both survive delta = 0.05. *)
  let g, forms =
    diamond [| noisy 5.0; noisy 5.0; noisy 2.0; noisy 5.0; noisy 5.0 |]
  in
  let r =
    Criticality.compute ~exact:true ~delta:0.05 g
      ~forms:(Sweep_oracle.pack_like forms)
  in
  Alcotest.(check bool) "both kept" true
    (r.Criticality.keep.(0) && r.Criticality.keep.(1));
  Alcotest.(check bool)
    "balanced criticality"
    true
    (r.Criticality.cm.(0) > 0.2 && r.Criticality.cm.(0) < 0.8)

let test_criticality_pair_specific () =
  (* The paper's definition is per input-output pair: an edge that is
     non-critical for the global worst path can still be fully critical for
     its own pair.  Inputs 0 and 1 drive separate chains to separate
     outputs; the slow chain dominates globally but both chains must be
     kept. *)
  let g =
    Tgraph.make ~n_vertices:4
      ~edges:[| (0, 2); (1, 3) |]
      ~inputs:[| 0; 1 |] ~outputs:[| 2; 3 |]
  in
  let forms = [| noisy 100.0; noisy 1.0 |] in
  let r =
    Criticality.compute ~exact:true ~delta:0.05 g
      ~forms:(Sweep_oracle.pack_like forms)
  in
  Alcotest.(check bool) "slow chain kept" true r.Criticality.keep.(0);
  Alcotest.(check bool) "fast chain kept too" true r.Criticality.keep.(1);
  close ~tol:1e-6 "fast chain criticality 1 for its pair" 1.0
    r.Criticality.cm.(1)

let test_criticality_delta_validation () =
  let g, forms = diamond [| det 1.0; det 1.0; det 1.0; det 1.0; det 1.0 |] in
  Alcotest.(check bool)
    "delta >= 1 rejected" true
    (try
       ignore (Criticality.compute ~delta:1.0 g
                 ~forms:(Sweep_oracle.pack_like forms));
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Reduction                                                           *)
(* ------------------------------------------------------------------ *)

let all_keep g = Array.make (Tgraph.n_edges g) true

let test_serial_merge_chain () =
  (* input -> a -> b -> output collapses to one edge with summed delay. *)
  let g =
    Tgraph.make ~n_vertices:4
      ~edges:[| (0, 1); (1, 2); (2, 3) |]
      ~inputs:[| 0 |] ~outputs:[| 3 |]
  in
  let forms = [| noisy 1.0; noisy 2.0; noisy 3.0 |] in
  let w =
    Reduce.of_graph g ~forms:(Sweep_oracle.pack_like forms) ~keep:(all_keep g)
  in
  Reduce.reduce w;
  Alcotest.(check int) "one edge" 1 (Reduce.n_live_edges w);
  Alcotest.(check int) "two vertices" 2 (Reduce.n_live_vertices w);
  let rg, rforms, _, _ = Reduce.freeze w in
  let rforms = Sweep_oracle.unpack rforms in
  Alcotest.(check int) "frozen edges" 1 (Tgraph.n_edges rg);
  close ~tol:1e-9 "summed mean" 6.0 rforms.(0).Form.mean;
  (* Serial merges are exact: variance adds covariantly. *)
  let direct =
    Sweep_oracle.add (Sweep_oracle.add forms.(0) forms.(1)) forms.(2)
  in
  close ~tol:1e-9 "summed variance" (Form.variance direct)
    (Form.variance rforms.(0))

let test_parallel_merge () =
  let g =
    Tgraph.make ~n_vertices:2
      ~edges:[| (0, 1); (0, 1); (0, 1) |]
      ~inputs:[| 0 |] ~outputs:[| 1 |]
  in
  let forms = [| noisy 4.0; noisy 5.0; noisy 4.5 |] in
  let w =
    Reduce.of_graph g ~forms:(Sweep_oracle.pack_like forms) ~keep:(all_keep g)
  in
  Reduce.reduce w;
  Alcotest.(check int) "merged to one edge" 1 (Reduce.n_live_edges w);
  let _, rforms, _, _ = Reduce.freeze w in
  let direct = Sweep_oracle.max_list (Array.to_list forms) in
  close ~tol:0.2 "max-merged mean" direct.Form.mean
    (Ssta_canonical.Form_buf.mean rforms 0)

let test_prune_dead_vertices () =
  (* Removing the only edge into an internal vertex makes its whole
     downstream cone dead (unless reachable otherwise). *)
  let g =
    Tgraph.make ~n_vertices:5
      ~edges:[| (0, 2); (2, 3); (0, 4); (3, 4) |]
      ~inputs:[| 0 |] ~outputs:[| 4 |]
  in
  let forms = Array.init 4 (fun _ -> noisy 1.0) in
  let keep = [| false; true; true; true |] in
  let w = Reduce.of_graph g ~forms:(Sweep_oracle.pack_like forms) ~keep in
  Reduce.reduce w;
  (* Vertices 2 and 3 die; only input -> output edge remains. *)
  Alcotest.(check int) "edges after prune" 1 (Reduce.n_live_edges w);
  Alcotest.(check int) "vertices after prune" 2 (Reduce.n_live_vertices w)

let test_ports_never_merged () =
  (* A chain whose middle vertex is itself an output must keep the port. *)
  let g =
    Tgraph.make ~n_vertices:3
      ~edges:[| (0, 1); (1, 2) |]
      ~inputs:[| 0 |] ~outputs:[| 1; 2 |]
  in
  let forms = [| noisy 1.0; noisy 2.0 |] in
  let w =
    Reduce.of_graph g ~forms:(Sweep_oracle.pack_like forms) ~keep:(all_keep g)
  in
  Reduce.reduce w;
  Alcotest.(check int) "both edges stay" 2 (Reduce.n_live_edges w);
  Alcotest.(check int) "all vertices stay" 3 (Reduce.n_live_vertices w)

let test_reduce_preserves_io_delays () =
  (* With keep = all (delta -> 0), reduction must preserve the IO delay
     matrix up to max-approximation reordering. *)
  let nl = Ssta_circuit.Adder.ripple ~bits:6 () in
  let b = Build.characterize nl in
  let g = b.Build.graph in
  let w = Reduce.of_graph g ~forms:b.Build.forms ~keep:(all_keep g) in
  Reduce.reduce w;
  let rg, rforms, rin, rout = Reduce.freeze w in
  let rforms = Sweep_oracle.unpack rforms in
  ignore rin;
  ignore rout;
  Alcotest.(check bool)
    "reduction shrinks graph" true
    (Tgraph.n_edges rg < Tgraph.n_edges g);
  (* Compare a few IO delays. *)
  let orig_arr i =
    Sweep_oracle.forward g
      ~forms:(Sweep_oracle.unpack b.Build.forms) ~sources:[| i |]
  in
  let red_arr i =
    Sweep_oracle.forward rg ~forms:rforms ~sources:[| rg.Tgraph.inputs.(i) |]
  in
  List.iter
    (fun i ->
      let ao = orig_arr g.Tgraph.inputs.(i) and ar = red_arr i in
      Array.iteri
        (fun j out_o ->
          let out_r = rg.Tgraph.outputs.(j) in
          match (ao.(out_o), ar.(out_r)) with
          | None, None -> ()
          | Some fo, Some fr ->
              if abs_float (fo.Form.mean -. fr.Form.mean) > 0.01 *. fo.Form.mean
              then
                Alcotest.fail
                  (Printf.sprintf "pair (%d,%d): %g vs %g" i j fo.Form.mean
                     fr.Form.mean);
              if abs_float (Form.std fo -. Form.std fr) > 0.05 *. Form.std fo
              then Alcotest.fail "std drift too large"
          | _ -> Alcotest.fail "reachability changed by reduction")
        g.Tgraph.outputs)
    [ 0; 3; 7 ]

(* ------------------------------------------------------------------ *)
(* Extraction                                                          *)
(* ------------------------------------------------------------------ *)

let test_extract_c432 () =
  let b = Build.characterize (Ssta_circuit.Iscas.build "c432") in
  let model = Extract.extract ~delta:0.05 b in
  let pe, pv = Timing_model.compression model in
  Alcotest.(check bool) "compresses edges" true (pe < 0.6);
  Alcotest.(check bool) "compresses vertices" true (pv < 0.6);
  Alcotest.(check int)
    "ports preserved"
    (Array.length b.Build.graph.Tgraph.inputs
    + Array.length b.Build.graph.Tgraph.outputs)
    (Timing_model.n_inputs model + Timing_model.n_outputs model)

let test_extract_io_accuracy_vs_full_ssta () =
  (* Model IO delays vs full-graph SSTA IO delays (paper's accuracy claim,
     with SSTA as reference to isolate extraction error from MC noise). *)
  let b = Build.characterize (Ssta_circuit.Iscas.build "c432") in
  let model = Extract.extract ~delta:0.05 b in
  let io = Timing_model.io_delays model in
  let g = b.Build.graph in
  let worst_mean = ref 0.0 and worst_std = ref 0.0 in
  Array.iteri
    (fun i input ->
      let arr =
        Sweep_oracle.forward g
          ~forms:(Sweep_oracle.unpack b.Build.forms) ~sources:[| input |]
      in
      Array.iteri
        (fun j out ->
          match (io.(i).(j), arr.(out)) with
          | Some fm, Some fo ->
              worst_mean :=
                Float.max !worst_mean
                  (abs_float (fm.Form.mean -. fo.Form.mean) /. fo.Form.mean);
              worst_std :=
                Float.max !worst_std
                  (abs_float (Form.std fm -. Form.std fo) /. Form.std fo)
          | None, Some fo ->
              (* Dropping a weak pair entirely is only acceptable if its
                 delay was dominated; reject loudly. *)
              Alcotest.fail
                (Printf.sprintf "model lost pair (%d,%d) of delay %g" i j
                   fo.Form.mean)
          | Some _, None -> Alcotest.fail "model invented a pair"
          | None, None -> ())
        g.Tgraph.outputs)
    g.Tgraph.inputs;
  Alcotest.(check bool)
    (Printf.sprintf "worst mean error %.3f%% < 2%%" (100.0 *. !worst_mean))
    true (!worst_mean < 0.02);
  Alcotest.(check bool)
    (Printf.sprintf "worst std error %.3f%% < 12%%" (100.0 *. !worst_std))
    true (!worst_std < 0.12)

let test_extract_delta_tradeoff () =
  (* Larger delta must not produce larger models. *)
  let b = Build.characterize (Ssta_circuit.Iscas.build "c499") in
  let m1 = Extract.extract ~delta:0.01 b in
  let m2 = Extract.extract ~delta:0.2 b in
  Alcotest.(check bool)
    "monotone compression" true
    (m2.Timing_model.stats.Timing_model.model_edges
    <= m1.Timing_model.stats.Timing_model.model_edges)

let test_extract_histogram_bimodal () =
  (* Paper Fig. 6: criticalities pile up at 0 and 1. *)
  let b = Build.characterize (Ssta_circuit.Iscas.build "c880") in
  let _, crit = Extract.extract_with_criticality ~exact:true ~delta:0.05 b in
  let cm = crit.Criticality.cm in
  let n = float_of_int (Array.length cm) in
  let low =
    Array.fold_left (fun k c -> if c < 0.05 then k + 1 else k) 0 cm
  in
  let high =
    Array.fold_left (fun k c -> if c > 0.9 then k + 1 else k) 0 cm
  in
  Alcotest.(check bool)
    (Printf.sprintf "bimodal: %d low, %d high of %.0f" low high n)
    true
    (float_of_int (low + high) /. n > 0.5)

let suites =
  [
    ( "core.propagate",
      [
        Alcotest.test_case "deterministic = STA" `Quick
          test_propagate_deterministic_matches_sta;
        Alcotest.test_case "exclusive sources" `Quick
          test_propagate_exclusive_sources;
        Alcotest.test_case "backward required" `Quick test_propagate_backward;
        Alcotest.test_case "max adds variance" `Quick
          test_propagate_max_includes_variance;
        Alcotest.test_case "scalar summaries" `Quick test_scalar_summaries;
      ] );
    ( "core.criticality",
      [
        Alcotest.test_case "dominant path" `Quick test_criticality_dominant_path;
        Alcotest.test_case "chain all critical" `Quick
          test_criticality_chain_all_critical;
        Alcotest.test_case "balanced half" `Quick test_criticality_balanced_half;
        Alcotest.test_case "pair-specific definition" `Quick
          test_criticality_pair_specific;
        Alcotest.test_case "delta validation" `Quick
          test_criticality_delta_validation;
      ] );
    ( "core.reduce",
      [
        Alcotest.test_case "serial merge chain" `Quick test_serial_merge_chain;
        Alcotest.test_case "parallel merge" `Quick test_parallel_merge;
        Alcotest.test_case "prune dead" `Quick test_prune_dead_vertices;
        Alcotest.test_case "ports protected" `Quick test_ports_never_merged;
        Alcotest.test_case "IO delays preserved" `Quick
          test_reduce_preserves_io_delays;
      ] );
    ( "core.extract",
      [
        Alcotest.test_case "c432 compression" `Quick test_extract_c432;
        Alcotest.test_case "IO accuracy vs full SSTA" `Quick
          test_extract_io_accuracy_vs_full_ssta;
        Alcotest.test_case "delta tradeoff" `Quick test_extract_delta_tradeoff;
        Alcotest.test_case "criticality histogram bimodal" `Slow
          test_extract_histogram_bimodal;
      ] );
  ]
