(* Equivalence suite for the cone-indexed criticality screen: on random
   DAGs the production screen (edge cones, destination bitmasks, the
   edge-blocked walk, output tiling, pooled scratch) must return bit-identical
   keep / cm / exact_evals / screened_pairs versus a naive full-scan
   reference on the boxed oracle that shares only the chunk layout and
   the per-pair arithmetic - at 1/2/4 domains, several tile sizes, and in
   both threshold and exact modes.  Also pins the tile-knob parsers and their
   precedence, and the Form_buf rewrite of
   Extract.output_load_increments against the boxed Form.scale /
   Sweep_oracle.max_list fold it replaced. *)

module H = Hier_ssta
module Form = Ssta_canonical.Form
module Form_buf = Ssta_canonical.Form_buf
module Tgraph = Ssta_timing.Tgraph
module Normal = Ssta_gauss.Normal
module Build = Ssta_timing.Build
module Rng = Ssta_gauss.Rng

(* Naive full-scan reference for the screen, on boxed forms only: every
   arrival and required time comes from the per-operation boxed sweeps of
   Sweep_oracle and every moment from Form.variance / Form.covariance, so
   it shares no kernel with the code it checks.  Structure deliberately
   kept dumb: chunks run sequentially, every arrival and backward pass
   stays resident, and the inner loop walks all m edges per (output,
   input) pair rejecting unreachable endpoints.  What it shares with the
   production screen is the semantics: the chunk layout (ceil(|I|/32)-sized
   input chunks), the per-chunk (output, input, edge) visit order, the
   settled-edge skip (bar = infinity: visited nowhere, counted nowhere),
   the disposal-only screened_pairs counter, and the exact per-pair
   arithmetic. *)
let reference ?(exact = false) ~delta g ~forms =
  let m = Tgraph.n_edges g in
  let inputs = g.Tgraph.inputs and outputs = g.Tgraph.outputs in
  let ni = Array.length inputs and no = Array.length outputs in
  let z_delta = Normal.quantile delta in
  let z_floor = Normal.quantile 1e-3 in
  let bar0 = if exact then z_floor else z_delta in
  let d_mu = Array.map (fun f -> f.Form.mean) forms in
  let d_var = Array.map Form.variance forms in
  let d_sig = Array.map sqrt d_var in
  let src = g.Tgraph.src and dst = g.Tgraph.dst in
  let req = Array.map (Sweep_oracle.backward_to g ~forms) outputs in
  let req_st = Array.map Sweep_oracle.scalar_summaries req in
  let input_chunk = max 1 ((ni + 31) / 32) in
  let n_chunks = if ni = 0 then 0 else (ni + input_chunk - 1) / input_chunk in
  let keep = Array.make m false in
  let cm_z = Array.make m neg_infinity in
  let exact_evals = ref 0 and screened = ref 0 in
  for c = 0 to n_chunks - 1 do
    let lo = c * input_chunk in
    let hi = min ni (lo + input_chunk) in
    let n_in = hi - lo in
    let bar = Array.make m bar0 in
    let ckeep = Array.make m false in
    let fwd =
      Array.init n_in (fun slot ->
          Sweep_oracle.forward g ~forms ~sources:[| inputs.(lo + slot) |])
    in
    let fwd_st = Array.map Sweep_oracle.scalar_summaries fwd in
    for j = 0 to no - 1 do
      let out = outputs.(j) in
      let rmu, rsig = req_st.(j) in
      for slot = 0 to n_in - 1 do
        match fwd.(slot).(out) with
        | None -> ()
        | Some mf ->
          let m_mu = mf.Form.mean in
          let m_sig = Form.std mf in
          let amu_row, asig_row = fwd_st.(slot) in
          for e = 0 to m - 1 do
            let s = src.(e) in
            let amu = amu_row.(s) in
            if amu = amu (* reachable from input *) && bar.(e) < infinity
            then begin
              let d = dst.(e) in
              let rm = rmu.(d) in
              if rm = rm (* reaches output *) then begin
                let mu_de = amu +. d_mu.(e) +. rm in
                let theta_max =
                  asig_row.(s) +. d_sig.(e) +. rsig.(d) +. m_sig
                in
                let survivor =
                  if mu_de >= m_mu then true
                  else (mu_de -. m_mu) /. theta_max > bar.(e)
                in
                if survivor then begin
                  incr exact_evals;
                  let get = function Some f -> f | None -> assert false in
                  let a = get fwd.(slot).(s) and r = get req.(j).(d) in
                  let ef = forms.(e) in
                  let var_de =
                    Form.variance a +. d_var.(e) +. Form.variance r
                    +. 2.0
                       *. (Form.covariance a ef +. Form.covariance a r
                          +. Form.covariance ef r)
                  in
                  let cov_dem =
                    Form.covariance a mf +. Form.covariance ef mf
                    +. Form.covariance r mf
                  in
                  let m_var = m_sig *. m_sig in
                  let theta2 = var_de +. m_var -. (2.0 *. cov_dem) in
                  let scale = var_de +. m_var +. 1e-30 in
                  let rand_de2 =
                    (a.Form.rand *. a.Form.rand)
                    +. (ef.Form.rand *. ef.Form.rand)
                    +. (r.Form.rand *. r.Form.rand)
                  in
                  let m_rand = mf.Form.rand in
                  let linear_dist2 =
                    var_de -. rand_de2 +. m_var -. (m_rand *. m_rand)
                    -. (2.0 *. cov_dem)
                  in
                  let same_path =
                    m_mu -. mu_de <= (0.02 *. m_sig) +. 1e-30
                    && linear_dist2 <= 1e-4 *. scale
                    && m_var <= var_de +. (1e-3 *. scale)
                  in
                  let z =
                    if same_path then infinity
                    else if theta2 <= 1e-12 *. scale then
                      if mu_de >= m_mu then infinity else neg_infinity
                    else (mu_de -. m_mu) /. sqrt theta2
                  in
                  if z >= z_delta then ckeep.(e) <- true;
                  if z > cm_z.(e) then cm_z.(e) <- z;
                  if exact then bar.(e) <- Float.max bar.(e) z
                  else if ckeep.(e) then bar.(e) <- infinity
                end
                else incr screened
              end
            end
          done
      done
    done;
    for e = 0 to m - 1 do
      if ckeep.(e) then keep.(e) <- true
    done
  done;
  let cm =
    Array.map
      (fun z ->
        if z = neg_infinity then 0.0
        else if z = infinity then 1.0
        else Normal.cdf z)
      cm_z
  in
  { H.Criticality.keep; cm; exact_evals = !exact_evals;
    screened_pairs = !screened }

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
       a b

let dim_cases =
  [
    { Form.n_globals = 0; n_pcs = 0 };
    { Form.n_globals = 3; n_pcs = 0 };
    { Form.n_globals = 2; n_pcs = 4 };
  ]

(* A DAG the screen walks in several edge blocks: few ports, and enough
   edges at a wide stride that [Criticality.edge_block] splits them into
   at least four blocks (the [random_dag] graphs fit in one).  [n_in]
   roots each feed an early vertex, a chain through the interior gives
   every interior vertex a fanout, [n_out] sinks hang off the last
   interior vertex, and every non-root takes one or two more fanins from
   the preceding 40 interior vertices. *)
let multi_block_dims = { Form.n_globals = 3; n_pcs = 125 }

let multi_block_dag seed =
  let dims = multi_block_dims in
  let rng = Rng.create ~seed in
  let n_in = 2 + Rng.int rng 3 and n_out = 2 + Rng.int rng 3 in
  let n = 550 + Rng.int rng 100 in
  let first_out = n - n_out in
  let edges = ref [] in
  for v = n_in to n - 1 do
    let seen = Hashtbl.create 4 and fanins = ref [] in
    let add s =
      if not (Hashtbl.mem seen s) then begin
        Hashtbl.replace seen s ();
        fanins := s :: !fanins
      end
    in
    add (if v < first_out then v - 1 else first_out - 1);
    if v < 2 * n_in then add (v - n_in);
    let hi = min v first_out in
    let lo = max 0 (hi - 40) in
    for _ = 1 to 1 + Rng.int rng 2 do
      add (lo + Rng.int rng (hi - lo))
    done;
    List.iter (fun s -> edges := (s, v) :: !edges) (List.rev !fanins)
  done;
  let g =
    Tgraph.make ~n_vertices:n
      ~edges:(Array.of_list (List.rev !edges))
      ~inputs:(Array.init n_in Fun.id)
      ~outputs:(Array.init n_out (fun k -> first_out + k))
  in
  let forms =
    Array.init (Tgraph.n_edges g) (fun _ -> Test_kernels.random_form rng dims)
  in
  let stride = dims.Form.n_globals + dims.Form.n_pcs + 2 in
  let blocks =
    Ssta_par.Par.n_chunks
      ~chunk:(H.Criticality.edge_block ~stride)
      (Tgraph.n_edges g)
  in
  if blocks < 4 then
    Alcotest.failf "multi-block DAG (seed %d): %d edge blocks, want >= 4" seed
      blocks;
  (g, forms)

(* The central property: production screen == naive reference, bit for
   bit, in every (mode, domain count, tile size) combination, on the
   small random DAGs of each [dim_cases] layout and on one multi-block
   DAG. *)
let prop_screen_equivalence seed =
  let cases =
    List.mapi
      (fun k dims -> (dims, Test_kernels.random_dag (seed + (10_000 * k)) dims))
      dim_cases
    @ [ (multi_block_dims, multi_block_dag seed) ]
  in
  List.iter
    (fun (dims, (g, forms)) ->
      List.iter
        (fun exact ->
          let want = reference ~exact ~delta:0.05 g ~forms in
          List.iter
            (fun domains ->
              List.iter
                (fun tile ->
                  let got =
                    Ssta_par.Par.with_domains domains (fun () ->
                        H.Criticality.compute ~exact ?tile ~delta:0.05 g
                          ~forms:(Sweep_oracle.pack_like forms))
                  in
                  let label =
                    Printf.sprintf
                      "seed=%d dims=(%d,%d) m=%d exact=%b domains=%d tile=%s"
                      seed dims.Form.n_globals dims.Form.n_pcs
                      (Tgraph.n_edges g) exact domains
                      (match tile with
                      | None -> "all"
                      | Some t -> string_of_int t)
                  in
                  if got.H.Criticality.keep <> want.H.Criticality.keep then
                    Alcotest.failf "%s: keep mask differs" label;
                  if not (bits_equal got.H.Criticality.cm want.H.Criticality.cm)
                  then Alcotest.failf "%s: cm differs" label;
                  if
                    got.H.Criticality.exact_evals
                    <> want.H.Criticality.exact_evals
                  then
                    Alcotest.failf "%s: exact_evals %d <> %d" label
                      got.H.Criticality.exact_evals
                      want.H.Criticality.exact_evals;
                  if
                    got.H.Criticality.screened_pairs
                    <> want.H.Criticality.screened_pairs
                  then
                    Alcotest.failf "%s: screened_pairs %d <> %d" label
                      got.H.Criticality.screened_pairs
                      want.H.Criticality.screened_pairs)
                [ None; Some 1; Some 3 ])
            [ 1; 2; 4 ])
        [ false; true ])
    cases;
  true

(* The tile argument must be validated, not clamped silently. *)
let test_tile_validation () =
  let dims = { Form.n_globals = 2; n_pcs = 4 } in
  let g, forms = Test_kernels.random_dag 42 dims in
  Alcotest.check_raises "tile = 0 rejected"
    (Invalid_argument "Criticality.compute: tile must be at least 1")
    (fun () ->
      ignore (H.Criticality.compute ~tile:0 ~delta:0.05 g
                ~forms:(Sweep_oracle.pack_like forms)));
  (* An oversized tile is just the untiled screen. *)
  let a =
    H.Criticality.compute ~delta:0.05 g ~forms:(Sweep_oracle.pack_like forms)
  in
  let b =
    H.Criticality.compute ~tile:10_000 ~delta:0.05 g
      ~forms:(Sweep_oracle.pack_like forms)
  in
  Alcotest.(check bool) "oversized tile = untiled" true
    (a.H.Criticality.keep = b.H.Criticality.keep
    && bits_equal a.H.Criticality.cm b.H.Criticality.cm
    && a.H.Criticality.exact_evals = b.H.Criticality.exact_evals
    && a.H.Criticality.screened_pairs = b.H.Criticality.screened_pairs)

(* The pure parser behind CRIT_TILE_BUDGET_MB (positive integers only)
   and the auto-tile formula it feeds. *)
let test_tile_parsers () =
  let open H.Criticality in
  let bc = Alcotest.(check (option int)) in
  bc "budget int" (Some 512) (budget_mb_of_string "512");
  bc "budget trimmed" (Some 64) (budget_mb_of_string " 64 ");
  bc "budget zero rejected" None (budget_mb_of_string "0");
  bc "budget garbage rejected" None (budget_mb_of_string "big");
  bc "budget unit suffix rejected" None (budget_mb_of_string "2G");
  (* The auto heuristic: largest slot count fitting the budget, floored
     at 1.  One slot costs nv*(8*stride+34) + 8*m bytes. *)
  let tile =
    H.Criticality.auto_tile ~budget_mb:1 ~n_vertices:1000 ~n_edges:2000
      ~stride:10 ()
  in
  Alcotest.(check int) "auto_tile 1MB" (1024 * 1024 / ((1000 * 114) + 16_000))
    tile;
  Alcotest.(check int) "auto_tile floors at 1" 1
    (H.Criticality.auto_tile ~budget_mb:1 ~n_vertices:10_000_000
       ~n_edges:20_000_000 ~stride:100 ());
  (* A budget too large to count in bytes saturates instead of wrapping
     round to a tiny tile: c7552's size (3 707 vertices, 7 094 edges,
     stride 113) fits any number of outputs. *)
  let c7552 budget_mb =
    H.Criticality.auto_tile ~budget_mb ~n_vertices:3_707 ~n_edges:7_094
      ~stride:113 ()
  in
  Alcotest.(check int) "auto_tile saturates at max_int MB"
    (max_int / ((3_707 * ((8 * 113) + 34)) + (8 * 7_094)))
    (c7552 max_int);
  Alcotest.(check bool) "auto_tile grows with the budget" true
    (c7552 (max_int / 1024) <= c7552 max_int
    && c7552 1024 < c7552 (max_int / (1024 * 1024)))

(* Tile precedence, observed through the criticality.backward_tiles
   counter: an explicit ?tile beats the budget-sized auto tile, whose
   default budget covers any test-sized graph in one tile. *)
let test_tile_precedence () =
  let dims = { Form.n_globals = 2; n_pcs = 4 } in
  let g, forms = Test_kernels.random_dag 7 dims in
  let no = Array.length g.Tgraph.outputs in
  Alcotest.(check bool) "graph has several outputs" true (no >= 2);
  let saved = Ssta_obs.Obs.enabled () in
  Ssta_obs.Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Ssta_obs.Obs.set_enabled saved;
      Ssta_obs.Obs.reset ())
    (fun () ->
      Ssta_obs.Obs.enable ();
      let tiles_of ?tile () =
        Ssta_obs.Obs.reset ();
        ignore (H.Criticality.compute ?tile ~delta:0.05 g
                  ~forms:(Sweep_oracle.pack_like forms));
        Ssta_obs.Obs.find_counter "criticality.backward_tiles"
      in
      Alcotest.(check int) "budget default: one tile at test scale" 1
        (tiles_of ());
      Alcotest.(check int) "?tile:1 beats the budget" no (tiles_of ~tile:1 ());
      Alcotest.(check int) "?tile:2 beats the budget" ((no + 1) / 2)
        (tiles_of ~tile:2 ()))

(* Extract.output_load_increments was rewritten on Form_buf in-place
   kernels; it must reproduce the boxed Form.scale list + Sweep_oracle.max_list
   fold bit for bit (the list head was the LAST fanin arc, so the fold
   visits arcs in descending edge order). *)
let test_output_load_matches_boxed () =
  let nl =
    Ssta_circuit.Random_logic.make
      {
        Ssta_circuit.Random_logic.name = "load_eq";
        n_pi = 6;
        n_po = 5;
        n_gates = 60;
        seed = 9;
        locality = 0.5;
      }
  in
  let b = Build.characterize nl in
  let model = H.Extract.extract ~delta:0.05 b in
  let g = b.Build.graph in
  let fanouts = Ssta_circuit.Netlist.fanout_counts b.Build.netlist in
  let expected =
    Array.map
      (fun out ->
        let lo = g.Tgraph.fanin_lo.(out) and hi = g.Tgraph.fanin_hi.(out) in
        if hi <= lo then Form.zero b.Build.basis.Ssta_variation.Basis.dims
        else begin
          let fanout = max fanouts.(out) 1 in
          let slope = 0.12 /. (1.0 +. (0.12 *. float_of_int (fanout - 1))) in
          let arcs = ref [] in
          for e = lo to hi - 1 do
            arcs :=
              Form.scale slope (Form_buf.get b.Build.forms e)
              :: !arcs
          done;
          Sweep_oracle.max_list !arcs
        end)
      g.Tgraph.outputs
  in
  Array.iteri
    (fun k want ->
      let got = model.H.Timing_model.output_load.(k) in
      if not (Sweep_oracle.same_bits want got) then
        Alcotest.failf "output load %d:@.expected %a@.actual   %a" k Form.pp
          want Form.pp got)
    expected

let qtest prop name =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:25 ~name QCheck.(int_range 0 100_000) prop)

let suites =
  [
    ( "crit_screen.equivalence",
      [
        qtest prop_screen_equivalence
          "cone screen = naive reference (keep/cm/counters, all modes)";
        Alcotest.test_case "tile validation and oversize" `Quick
          test_tile_validation;
        Alcotest.test_case "tile knob parsers (CRIT_TILE_BUDGET_MB)" `Quick
          test_tile_parsers;
        Alcotest.test_case "tile precedence: ?tile > budget" `Quick
          test_tile_precedence;
      ] );
    ( "crit_screen.output_load",
      [
        Alcotest.test_case "Form_buf fold = boxed Form fold (bit-exact)"
          `Quick test_output_load_matches_boxed;
      ] );
  ]
