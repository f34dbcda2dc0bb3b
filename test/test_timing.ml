(* Tests for timing graphs, deterministic STA and the characterization
   context that binds netlist, placement, grid and canonical forms. *)

module Tgraph = Ssta_timing.Tgraph
module Sta = Ssta_timing.Sta
module Build = Ssta_timing.Build
module N = Ssta_circuit.Netlist
module L = Ssta_cell.Library
module Form = Ssta_canonical.Form
module Form_buf = Ssta_canonical.Form_buf
module Rng = Ssta_gauss.Rng

let close ?(tol = 1e-9) msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

(* A hand-built diamond:  0 -> 2 -> 4, 0 -> 3 -> 4, 1 -> 3.
   Vertices 0,1 inputs; vertex 4 output. *)
let diamond () =
  Tgraph.make ~n_vertices:5
    ~edges:[| (0, 2); (0, 3); (1, 3); (2, 4); (3, 4) |]
    ~inputs:[| 0; 1 |] ~outputs:[| 4 |]

let test_tgraph_construction () =
  let g = diamond () in
  Alcotest.(check int) "edges" 5 (Tgraph.n_edges g);
  Alcotest.(check int) "vertices" 5 (Tgraph.n_vertices g);
  Alcotest.(check int) "fanout of 0" 2 (Array.length g.Tgraph.fanout.(0));
  Alcotest.(check int) "fanin range of 3" 2
    (g.Tgraph.fanin_hi.(3) - g.Tgraph.fanin_lo.(3))

let test_tgraph_rejects_disorder () =
  Alcotest.(check bool)
    "source before its fanins" true
    (try
       ignore
         (Tgraph.make ~n_vertices:3
            ~edges:[| (1, 2); (0, 1) |]
            ~inputs:[| 0 |] ~outputs:[| 2 |]);
       false
     with Ssta_robust.Robust.Error ctx ->
       ctx.Ssta_robust.Robust.subsystem = "timing.tgraph"
       && ctx.Ssta_robust.Robust.indices <> [])

let test_make_sorted_recovers () =
  (* Shuffled edges are re-sorted; arrival times agree with the reference. *)
  let edges = [| (2, 4); (0, 2); (3, 4); (1, 3); (0, 3) |] in
  let weights = [| 4.0; 1.0; 5.0; 2.0; 3.0 |] in
  let g, perm =
    Tgraph.make_sorted ~n_vertices:5 ~edges ~inputs:[| 0; 1 |]
      ~outputs:[| 4 |]
  in
  let w = Array.map (fun i -> weights.(i)) perm in
  let arr = Sta.forward g ~weights:w in
  (* Longest: 0 ->(3.0) 3 ->(5.0) 4 = 8; 0 ->(1) 2 ->(4) 4 = 5. *)
  close "arrival at 4" 8.0 arr.(4);
  close "arrival at 2" 1.0 arr.(2)

let test_make_sorted_rejects_cycle () =
  Alcotest.(check bool)
    "cycle rejected" true
    (try
       ignore
         (Tgraph.make_sorted ~n_vertices:2
            ~edges:[| (0, 1); (1, 0) |]
            ~inputs:[||] ~outputs:[||]);
       false
     with Ssta_robust.Robust.Error ctx ->
       (* The named vertex must actually lie on the cycle. *)
       ctx.Ssta_robust.Robust.subsystem = "timing.tgraph"
       && (match ctx.Ssta_robust.Robust.indices with
          | v :: _ -> v = 0 || v = 1
          | [] -> false))

let test_sta_forward () =
  let g = diamond () in
  let weights = [| 1.0; 10.0; 2.0; 5.0; 1.0 |] in
  let arr = Sta.forward g ~weights in
  close "arr 2" 1.0 arr.(2);
  close "arr 3" 10.0 arr.(3);
  close "arr 4" 11.0 arr.(4);
  close "design delay" 11.0 (Sta.design_delay g ~weights)

let test_sta_forward_from () =
  let g = diamond () in
  let weights = [| 1.0; 10.0; 2.0; 5.0; 1.0 |] in
  let arr = Array.make (Tgraph.n_vertices g) 0.0 in
  Sta.forward_from_into g ~weights 1 arr;
  Alcotest.(check bool) "2 unreachable from 1" true (arr.(2) = neg_infinity);
  close "arr 3 from 1" 2.0 arr.(3);
  close "arr 4 from 1" 3.0 arr.(4)

let test_of_netlist_counts () =
  let nl = Ssta_circuit.Iscas.build "c499" in
  let g = Tgraph.of_netlist nl in
  Alcotest.(check int) "edges = fanins" (N.n_edges nl) (Tgraph.n_edges g);
  Alcotest.(check int) "vertices = nodes" (N.n_nodes nl) (Tgraph.n_vertices g);
  Alcotest.(check int) "inputs" (N.n_pis nl) (Array.length g.Tgraph.inputs)

let test_reachability () =
  let g = diamond () in
  let r = Tgraph.reachable_from g 1 in
  Alcotest.(check bool) "1 reaches 3" true r.(3);
  Alcotest.(check bool) "1 reaches 4" true r.(4);
  Alcotest.(check bool) "1 does not reach 2" false r.(2);
  let b = Tgraph.reaches g 2 in
  Alcotest.(check bool) "0 reaches 2" true b.(0);
  Alcotest.(check bool) "1 cannot reach 2" false b.(1)

(* ------------------------------------------------------------------ *)
(* Characterization context                                            *)
(* ------------------------------------------------------------------ *)

let test_characterize_consistency () =
  let nl = Ssta_circuit.Iscas.build "c432" in
  let b = Build.characterize nl in
  Alcotest.(check int)
    "forms per edge"
    (Tgraph.n_edges b.Build.graph)
    (Form_buf.length b.Build.forms);
  Alcotest.(check int)
    "sparse per edge"
    (Tgraph.n_edges b.Build.graph)
    (Array.length b.Build.sparse);
  (* Canonical form and sparse description must agree on mean and total
     variance for every edge. *)
  Array.iteri
    (fun e (s : Build.sparse_edge) ->
      let f = Form_buf.get b.Build.forms e in
      close ~tol:1e-9 "mean = nominal" s.Build.nominal f.Form.mean;
      let corr = b.Build.basis.Ssta_variation.Basis.corr in
      let module C = Ssta_variation.Correlation in
      let expected_var =
        Array.fold_left
          (fun acc sv ->
            acc
            +. (s.Build.nominal *. sv *. s.Build.nominal *. sv
               *. (corr.C.var_global +. corr.C.var_local)))
          (s.Build.random_sigma *. s.Build.random_sigma)
          s.Build.sens
      in
      (* 0.5% headroom for the documented PCA eigenvalue clamping. *)
      if abs_float (Form.variance f -. expected_var) > 5e-3 *. expected_var
      then
        Alcotest.fail
          (Printf.sprintf "edge %d variance mismatch: %g vs %g" e
             (Form.variance f) expected_var))
    b.Build.sparse

let test_characterize_grid_budget () =
  let nl = Ssta_circuit.Iscas.build "c880" in
  let b = Build.characterize nl in
  let counts =
    Ssta_circuit.Placement.cells_per_tile b.Build.placement b.Build.grid
  in
  Array.iter
    (fun c ->
      Alcotest.(check bool) "under 100 cells" true (c <= 100))
    counts

let test_nominal_weights_positive () =
  let nl = Ssta_circuit.Iscas.build "c499" in
  let b = Build.characterize nl in
  Array.iter
    (fun w -> Alcotest.(check bool) "positive weight" true (w > 0.0))
    (Build.nominal_weights b)

let test_characterize_sampling_agreement () =
  (* A sampled edge delay has the same mean/std under the sparse MC model
     and under the canonical form. *)
  let nl = Ssta_circuit.Adder.ripple ~bits:4 () in
  let b = Build.characterize nl in
  let ctx = Ssta_mc.Sampler.ctx_of_build b in
  let rng = Rng.create ~seed:123 in
  let e = 5 in
  let acc = Ssta_gauss.Stats.Welford.create () in
  for _ = 1 to 20_000 do
    let s = Ssta_mc.Sampler.draw b.Build.basis rng in
    Ssta_gauss.Stats.Welford.add acc (Ssta_mc.Sampler.edge_delay ctx s rng e)
  done;
  let f = Form_buf.get b.Build.forms e in
  close ~tol:(0.02 *. f.Form.mean) "sample mean" f.Form.mean
    (Ssta_gauss.Stats.Welford.mean acc);
  close ~tol:(0.05 *. Form.std f) "sample std" (Form.std f)
    (Ssta_gauss.Stats.Welford.std acc)

(* Every bit of the characterized edge slab, slot by slot in the order
   mean, globals, PCs, random coefficient: the md5s were recorded from the
   boxed [Form.t array] characterization wrote before the slab. *)
let test_characterize_bits_pinned () =
  List.iter
    (fun (name, edges, md5) ->
      let b = Build.characterize (Ssta_circuit.Iscas.build name) in
      let buf = Buffer.create (1 lsl 20) in
      let add x =
        Buffer.add_string buf (Printf.sprintf "%Lx " (Int64.bits_of_float x))
      in
      for e = 0 to Form_buf.length b.Build.forms - 1 do
        let f = Form_buf.get b.Build.forms e in
        add f.Form.mean;
        Array.iter add f.Form.globals;
        Array.iter add f.Form.pcs;
        add f.Form.rand
      done;
      Alcotest.(check int) (name ^ " edges") edges
        (Form_buf.length b.Build.forms);
      Alcotest.(check string) (name ^ " forms md5") md5
        (Digest.to_hex (Digest.string (Buffer.contents buf))))
    [
      ("c432", 286, "ac2a49c43a28630c42d682c50a7063f5");
      ("c7552", 7094, "9d48c6e2da1c9c299f639cca58374de5");
    ]

let suites =
  [
    ( "timing.tgraph",
      [
        Alcotest.test_case "construction" `Quick test_tgraph_construction;
        Alcotest.test_case "rejects disorder" `Quick
          test_tgraph_rejects_disorder;
        Alcotest.test_case "make_sorted recovers order" `Quick
          test_make_sorted_recovers;
        Alcotest.test_case "make_sorted rejects cycles" `Quick
          test_make_sorted_rejects_cycle;
        Alcotest.test_case "of_netlist counts" `Quick test_of_netlist_counts;
        Alcotest.test_case "reachability" `Quick test_reachability;
      ] );
    ( "timing.sta",
      [
        Alcotest.test_case "forward" `Quick test_sta_forward;
        Alcotest.test_case "forward from one input" `Quick
          test_sta_forward_from;
      ] );
    ( "timing.build",
      [
        Alcotest.test_case "forms/sparse consistency" `Quick
          test_characterize_consistency;
        Alcotest.test_case "grid cell budget" `Quick
          test_characterize_grid_budget;
        Alcotest.test_case "nominal weights" `Quick
          test_nominal_weights_positive;
        Alcotest.test_case "sampling agreement" `Slow
          test_characterize_sampling_agreement;
        Alcotest.test_case "c432/c7552 forms bits pinned" `Quick
          test_characterize_bits_pinned;
      ] );
  ]
