(* Tests for the scenario-batch engine (lib/batch): the bit-identity
   contract (batch-of-S = S independent runs, at every domain count, in
   both sweep modes), the criticality-screen pass-through, the slab
   steady-state guarantee (capacity-planned workers never regrow), the
   per-scenario observability spans, and the scenario-spec JSON reader. *)

module Batch = Ssta_batch.Batch
module Build = Ssta_timing.Build
module Form = Ssta_canonical.Form
module Form_buf = Ssta_canonical.Form_buf
module Basis = Ssta_variation.Basis
module Tgraph = Ssta_timing.Tgraph
module Par = Ssta_par.Par
module Obs = Ssta_obs.Obs
module Robust = Ssta_robust.Robust
module H = Hier_ssta

let opt_equal a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b -> Sweep_oracle.same_bits a b
  | _ -> false

(* nan-aware bitwise scalar equality (unreachable outputs are nan). *)
let float_equal a b =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let result_equal (a : Batch.result) (b : Batch.result) =
  opt_equal a.Batch.delay b.Batch.delay
  && Array.for_all2 float_equal a.Batch.out_mu b.Batch.out_mu
  && Array.for_all2 float_equal a.Batch.out_sigma b.Batch.out_sigma
  && Array.length a.Batch.io = Array.length b.Batch.io
  && Array.for_all2
       (fun ra rb -> Array.for_all2 opt_equal ra rb)
       a.Batch.io b.Batch.io
  && a.Batch.kept_edges = b.Batch.kept_edges

let check_results msg want got =
  Alcotest.(check int)
    (msg ^ ": batch size") (Array.length want) (Array.length got);
  Array.iteri
    (fun k w ->
      if not (result_equal w got.(k)) then
        Alcotest.failf "%s: scenario %d (%s) diverges" msg k
          w.Batch.scenario.Batch.label)
    want

(* Shared characterized designs: one mid-size ISCAS stand-in with real
   fan-out reconvergence, one small random DAG per seed for breadth. *)
let c1908 = lazy (Build.characterize (Ssta_circuit.Iscas.build "c1908"))

let small seed =
  Build.characterize
    (Ssta_circuit.Random_logic.make
       {
         Ssta_circuit.Random_logic.name = Printf.sprintf "batch_s%d" seed;
         n_pi = 5;
         n_po = 4;
         n_gates = 60;
         seed;
         locality = 0.6;
       })

let scenarios_under_test =
  lazy
    (let s = Batch.default_scenarios 5 in
     (* Make sure at least one scenario exercises every transform axis at
        once, not just the default grid's cycle. *)
     s.(4) <-
       {
         s.(4) with
         Batch.corner = H.Corners.Slow 2.0;
         delay_scale = 1.07;
         sigma_scale = 1.25;
         grid_variant = Batch.Gradient { gx = 0.12; gy = -0.04 };
       };
     s)

(* ------------------------------------------------------------------ *)
(* Bit-identity: batch = independent runs, at every domain count       *)
(* ------------------------------------------------------------------ *)

let reference_results ?mode ?screen base scenarios =
  Par.with_domains 1 (fun () ->
      Array.map (fun s -> Batch.run_one ?mode ?screen base s) scenarios)

let test_delay_batch_equals_singles () =
  let base = Batch.prepare (Lazy.force c1908) in
  let scenarios = Lazy.force scenarios_under_test in
  let want = reference_results ~mode:Batch.Delay base scenarios in
  List.iter
    (fun d ->
      let got =
        Par.with_domains d (fun () ->
            Batch.run ~mode:Batch.Delay base scenarios)
      in
      check_results (Printf.sprintf "delay domains=%d" d) want got)
    [ 1; 2; 4 ]

let test_io_batch_equals_singles () =
  let base = Batch.prepare (small 7) in
  let scenarios = Lazy.force scenarios_under_test in
  let want = reference_results ~mode:Batch.Io base scenarios in
  List.iter
    (fun d ->
      let got =
        Par.with_domains d (fun () -> Batch.run ~mode:Batch.Io base scenarios)
      in
      check_results (Printf.sprintf "io domains=%d" d) want got)
    [ 1; 2; 4 ]

let test_io_matches_per_input_forward () =
  (* The Io matrix must agree with a plain per-input exclusive forward
     sweep over the scenario's recomposed forms - the cone restriction is
     an optimization, never an approximation. *)
  let b = small 11 in
  let base = Batch.prepare b in
  let s = Batch.nominal () in
  let r = Par.with_domains 1 (fun () -> Batch.run_one ~mode:Batch.Io base s) in
  let g = b.Build.graph in
  Array.iteri
    (fun i input ->
      let arr =
        Sweep_oracle.forward g
          ~forms:(Sweep_oracle.unpack b.Build.forms) ~sources:[| input |]
      in
      Array.iteri
        (fun j out ->
          if not (opt_equal r.Batch.io.(i).(j) arr.(out)) then
            Alcotest.failf "io(%d,%d) disagrees with the oracle sweep" i j)
        g.Tgraph.outputs)
    g.Tgraph.inputs

let test_random_dags_delay_and_io () =
  List.iter
    (fun seed ->
      let base = Batch.prepare (small seed) in
      let scenarios = Batch.default_scenarios 3 in
      List.iter
        (fun mode ->
          let want = reference_results ~mode base scenarios in
          let got =
            Par.with_domains 3 (fun () -> Batch.run ~mode base scenarios)
          in
          check_results (Printf.sprintf "seed=%d" seed) want got)
        [ Batch.Delay; Batch.Io ])
    [ 1; 2; 3 ]

let test_nominal_matches_extract_path () =
  (* The identity scenario must reproduce the base design's delay exactly:
     recompose with alpha = beta = 1 and nominal corner weights is the
     base form, so the sweep is the standard all-PI forward pass. *)
  let b = Lazy.force c1908 in
  let base = Batch.prepare b in
  let r =
    Par.with_domains 1 (fun () -> Batch.run_one base (Batch.nominal ()))
  in
  let g = b.Build.graph in
  let want =
    Sweep_oracle.circuit_delay g ~forms:(Sweep_oracle.unpack b.Build.forms)
  in
  if not (opt_equal r.Batch.delay want) then
    Alcotest.fail "nominal scenario delay differs from the direct sweep"

(* ------------------------------------------------------------------ *)
(* Criticality screen pass-through                                     *)
(* ------------------------------------------------------------------ *)

let test_screen_kept_counts () =
  let b = small 5 in
  let base = Batch.prepare b in
  let scenarios = Batch.default_scenarios 3 in
  let want = reference_results ~mode:Batch.Delay ~screen:true base scenarios in
  let got =
    Par.with_domains 2 (fun () ->
        Batch.run ~mode:Batch.Delay ~screen:true base scenarios)
  in
  check_results "screen" want got;
  Array.iter
    (fun r ->
      Alcotest.(check bool)
        "kept_edges filled" true
        (r.Batch.kept_edges >= 0
        && r.Batch.kept_edges <= Tgraph.n_edges b.Build.graph))
    got;
  (* The nominal scenario's screen must agree with calling the screen
     directly on the base forms. *)
  let nominal = Batch.run_one ~screen:true base (Batch.nominal ()) in
  let crit =
    H.Criticality.compute ~delta:0.05 b.Build.graph ~forms:b.Build.forms
  in
  let kept =
    Array.fold_left
      (fun n keep -> if keep then n + 1 else n)
      0 crit.H.Criticality.keep
  in
  Alcotest.(check int) "nominal kept = direct screen" kept
    nominal.Batch.kept_edges

(* ------------------------------------------------------------------ *)
(* One base, many runs                                                 *)
(* ------------------------------------------------------------------ *)

(* Worker scratch outlives a run: it lives on the base.  A sequence of
   runs on one base must equal the same runs on fresh bases, whatever the
   earlier runs left cached - arrays reordered, with repeats, of one
   scenario each (so consecutive runs put different scenarios at the same
   index), differing from an earlier array only at one index, and
   holding a structurally equal copy of an earlier scenario. *)
let reuse_sequence () =
  let s = Lazy.force scenarios_under_test in
  let n = Array.length s in
  let changed = Array.copy s in
  changed.(2) <- { s.(2) with Batch.sigma_scale = 1.3 };
  let copied = Array.copy s in
  copied.(2) <- { s.(2) with Batch.label = s.(2).Batch.label };
  [
    s;
    Array.init n (fun i -> s.(n - 1 - i));
    [| s.(1) |];
    [| s.(3) |];
    [| s.(0); s.(0); s.(2); s.(0) |];
    changed;
    s;
    copied;
    [| s.(4) |];
  ]

let test_reused_base_equals_fresh () =
  List.iter
    (fun (label, b, mode, screen) ->
      let runs = reuse_sequence () in
      let want =
        Par.with_domains 1 (fun () ->
            List.map
              (fun a -> Batch.run ~mode ~screen (Batch.prepare b) a)
              runs)
      in
      List.iter
        (fun d ->
          Par.with_domains d @@ fun () ->
          let base = Batch.prepare b in
          List.iteri
            (fun i (a, w) ->
              check_results
                (Printf.sprintf "%s domains=%d run %d" label d i)
                w
                (Batch.run ~mode ~screen base a))
            (List.combine runs want))
        [ 1; 4 ])
    [
      ("delay", Lazy.force c1908, Batch.Delay, false);
      ("io", small 7, Batch.Io, false);
      ("screen", small 5, Batch.Delay, true);
    ]

(* ------------------------------------------------------------------ *)
(* Slab steady state and observability                                 *)
(* ------------------------------------------------------------------ *)

let with_obs f =
  let saved = Obs.enabled () in
  Obs.reset ();
  Fun.protect ~finally:(fun () ->
      Obs.set_enabled saved;
      Obs.reset ())
  @@ fun () -> f ()

let test_slab_peak_is_capacity_plan () =
  (* The high-water gauge must equal the capacity plan exactly: one slab
     per worker sized to (edge forms + sweep workspace), never regrown -
     any growth would at least double the peak. *)
  with_obs @@ fun () ->
  Obs.enable ();
  let b = Lazy.force c1908 in
  let base = Batch.prepare b in
  Par.with_domains 2 @@ fun () ->
  ignore (Batch.run base (Batch.default_scenarios 6));
  let dims = b.Build.basis.Basis.dims in
  let g = b.Build.graph in
  let planned =
    8
    * (Form_buf.floats_needed dims (Tgraph.n_edges g)
      + Form_buf.floats_needed dims (Tgraph.n_vertices g))
  in
  Alcotest.(check int)
    "batch.slab_bytes_peak = plan" planned
    (Obs.gauge_value (Obs.gauge "batch.slab_bytes_peak"));
  (* Later runs on the same base draw the same workers: no new slab. *)
  let builds () = Obs.find_counter "batch.scratch_builds" in
  let warm = builds () in
  for _ = 1 to 5 do
    ignore (Batch.run base (Batch.default_scenarios 6));
    ignore
      (Batch.run ~mode:Batch.Io ~screen:true base (Batch.default_scenarios 2))
  done;
  Alcotest.(check bool) "at most two workers built" true (warm <= 2);
  Alcotest.(check int) "no slab built by warm runs" warm (builds ())

(* Allocation pin for one scenario the worker has not materialized yet:
   a slow-corner Batch.run_one on c1908 at one domain re-derives every
   edge's corner mean (Corners.corner_weights_into) and sweeps.  Each call
   gets a fresh scenario record, so the worker's cached-scenario skip
   never fires.  Measured at 7 436 words per call (the result's arrays and
   forms); the budget leaves about 50 % headroom.  A per-edge closure or a
   boxed fold accumulator in the corner loop costs about 33 500 more, so
   either fails the pin. *)
let test_slow_run_one_allocation () =
  let base = Batch.prepare (Lazy.force c1908) in
  let slow =
    { (Batch.nominal ~label:"slow" ()) with Batch.corner = H.Corners.Slow 1.0 }
  in
  Par.with_domains 1 @@ fun () ->
  let words =
    Test_kernels.minor_words_per (fun () ->
        Batch.run_one base { slow with Batch.label = "slow" })
  in
  let budget = 11000.0 in
  Alcotest.(check bool)
    (Printf.sprintf "slow run_one: %.0f minor words <= %.0f" words budget)
    true (words <= budget)

let test_span_granularity () =
  with_obs @@ fun () ->
  Obs.enable ();
  let base = Batch.prepare (small 3) in
  let scenarios = Batch.default_scenarios 4 in
  ignore (Par.with_domains 1 (fun () -> Batch.run ~screen:true base scenarios));
  let count name =
    match List.assoc_opt name (Obs.spans ()) with
    | Some s -> s.Obs.count
    | None -> 0
  in
  Alcotest.(check int) "batch.prepare spans" 1 (count "batch.prepare");
  Alcotest.(check int) "batch.run spans" 1 (count "batch.run");
  Alcotest.(check int) "batch.scenario spans" 4 (count "batch.scenario");
  Alcotest.(check int) "batch.screen spans" 4 (count "batch.screen");
  Alcotest.(check int) "scenario counter" 4
    (Obs.find_counter "batch.scenarios")

let test_obs_identity () =
  (* Instrumentation on or off must not change a single bit of the
     results. *)
  let base = Batch.prepare (small 9) in
  let scenarios = Batch.default_scenarios 3 in
  let off =
    with_obs (fun () ->
        Obs.disable ();
        Par.with_domains 2 (fun () -> Batch.run ~mode:Batch.Io base scenarios))
  in
  let on =
    with_obs (fun () ->
        Obs.enable ();
        Par.with_domains 2 (fun () -> Batch.run ~mode:Batch.Io base scenarios))
  in
  check_results "obs on = off" off on

(* ------------------------------------------------------------------ *)
(* Scenario-spec JSON                                                  *)
(* ------------------------------------------------------------------ *)

let test_parse_scenarios_ok () =
  let text =
    {|[
        {},
        {"label": "slow_grad", "corner": "slow", "k": 2.5,
         "delay_scale": 1.05, "sigma_scale": 1.2,
         "grad_x": 0.1, "grad_y": -0.05, "delta": 0.02,
         "note": "unknown fields are ignored"},
        {"corner": "global-slow"}
      ]|}
  in
  match Batch.parse_scenarios text with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok s ->
      Alcotest.(check int) "count" 3 (Array.length s);
      let d = s.(0) in
      Alcotest.(check string) "default label" "s00" d.Batch.label;
      Alcotest.(check bool)
        "defaults are the identity scenario" true
        (d.Batch.corner = H.Corners.Nominal
        && d.Batch.delay_scale = 1.0
        && d.Batch.sigma_scale = 1.0
        && d.Batch.grid_variant = Batch.Uniform);
      let x = s.(1) in
      Alcotest.(check string) "label" "slow_grad" x.Batch.label;
      Alcotest.(check bool) "corner" true (x.Batch.corner = H.Corners.Slow 2.5);
      Alcotest.(check bool)
        "gradient" true
        (x.Batch.grid_variant = Batch.Gradient { gx = 0.1; gy = -0.05 });
      Alcotest.(check (float 0.0)) "delta" 0.02 x.Batch.delta;
      Alcotest.(check bool)
        "hyphen corner alias" true
        (s.(2).Batch.corner = H.Corners.Global_slow 3.0)

(* Malformed specs are robustness defects, not bare errors: under Strict
   each raises a structured Robust.Error naming the batch subsystem;
   under Repair each defective field falls back to its documented
   default (counted under robust.scenario_repairs) and parsing
   succeeds. *)
let bad_specs =
  [
    ("not an array", {|{"corner": "slow"}|});
    ("entry not an object", {|[1, 2]|});
    ("unknown corner", {|[{"corner": "typical"}]|});
    ("delta out of range", {|[{"delta": 1.5}]|});
    ("non-numeric delay_scale", {|[{"delay_scale": "fast"}]|});
    ("negative sigma_scale", {|[{"sigma_scale": -0.5}]|});
    ("trailing garbage", {|[] trailing|});
    ("unterminated string", {|[{"label": "oops}]|});
    ("empty input", "");
  ]

let test_parse_scenarios_strict () =
  Robust.with_policy Robust.Strict (fun () ->
      List.iter
        (fun (label, text) ->
          match Batch.parse_scenarios text with
          | exception Robust.Error c ->
              Alcotest.(check string)
                (label ^ ": error names the batch subsystem")
                "batch" c.Robust.subsystem
          | Ok _ -> Alcotest.failf "%s: expected a strict error" label
          | Error e ->
              Alcotest.failf "%s: expected Robust.Error, got Error %s" label e)
        bad_specs)

let test_parse_scenarios_repair () =
  Robust.with_policy Robust.Repair (fun () ->
      let parsed label text =
        match Batch.parse_scenarios text with
        | Ok s -> s
        | Error e -> Alcotest.failf "%s: repair should succeed, got %s" label e
        | exception Robust.Error c ->
            Alcotest.failf "%s: repair should not raise: %s" label
              (Robust.to_string c)
      in
      (* Every defective spec parses; spot-check the documented defaults. *)
      List.iter (fun (label, text) -> ignore (parsed label text)) bad_specs;
      let whole = parsed "not an array" {|{"corner": "slow"}|} in
      Alcotest.(check int) "non-array spec -> one nominal" 1 (Array.length whole);
      Alcotest.(check bool)
        "non-array default is the nominal scenario" true
        (whole.(0) = Batch.nominal ~label:"s00" ());
      let entries = parsed "entries not objects" {|[1, 2]|} in
      Alcotest.(check int) "both entries kept" 2 (Array.length entries);
      Alcotest.(check string) "indexed label" "s01" entries.(1).Batch.label;
      let corner = (parsed "unknown corner" {|[{"corner": "typical"}]|}).(0) in
      Alcotest.(check bool)
        "unknown corner -> Nominal" true
        (corner.Batch.corner = H.Corners.Nominal);
      let delta = (parsed "delta out of range" {|[{"delta": 1.5}]|}).(0) in
      Alcotest.(check (float 0.0)) "bad delta -> 0.05" 0.05 delta.Batch.delta;
      let ds = (parsed "bad delay_scale" {|[{"delay_scale": "fast"}]|}).(0) in
      Alcotest.(check (float 0.0))
        "non-numeric delay_scale -> 1.0" 1.0 ds.Batch.delay_scale;
      let ss = (parsed "negative sigma_scale" {|[{"sigma_scale": -0.5}]|}).(0) in
      Alcotest.(check (float 0.0))
        "negative sigma_scale -> 0.0" 0.0 ss.Batch.sigma_scale)

let counter_value name =
  match List.assoc_opt name (Robust.counters ()) with Some v -> v | None -> 0

let test_parse_scenarios_repairs_counted () =
  Robust.with_policy Robust.Repair (fun () ->
      let before = counter_value "robust.scenario_repairs" in
      ignore (Batch.parse_scenarios {|[{"corner": "typical"}]|});
      let after = counter_value "robust.scenario_repairs" in
      Alcotest.(check bool) "repair counted" true (after > before))

let test_parsed_scenarios_run () =
  (* End-to-end: a parsed spec runs and matches the equivalent
     hand-constructed scenarios bit for bit. *)
  let text =
    {|[{"corner": "fast", "k": 3.0, "sigma_scale": 1.1},
       {"grad_x": 0.2}]|}
  in
  let parsed =
    match Batch.parse_scenarios text with
    | Ok s -> s
    | Error e -> Alcotest.failf "parse failed: %s" e
  in
  let by_hand =
    [|
      {
        (Batch.nominal ~label:"s00" ()) with
        Batch.corner = H.Corners.Fast 3.0;
        sigma_scale = 1.1;
      };
      {
        (Batch.nominal ~label:"s01" ()) with
        Batch.grid_variant = Batch.Gradient { gx = 0.2; gy = 0.0 };
      };
    |]
  in
  let base = Batch.prepare (small 13) in
  Par.with_domains 1 @@ fun () ->
  check_results "parsed = hand-built"
    (Batch.run base by_hand) (Batch.run base parsed)

let suites =
  [
    ( "batch.identity",
      [
        Alcotest.test_case "delay batch = singles (domains 1/2/4)" `Quick
          test_delay_batch_equals_singles;
        Alcotest.test_case "io batch = singles (domains 1/2/4)" `Quick
          test_io_batch_equals_singles;
        Alcotest.test_case "io matrix = per-input forward sweeps" `Quick
          test_io_matches_per_input_forward;
        Alcotest.test_case "random DAGs, both modes" `Quick
          test_random_dags_delay_and_io;
        Alcotest.test_case "nominal scenario = direct extraction sweep"
          `Quick test_nominal_matches_extract_path;
        Alcotest.test_case "screen kept counts deterministic" `Quick
          test_screen_kept_counts;
        Alcotest.test_case "reused base = fresh bases (domains 1/4)" `Quick
          test_reused_base_equals_fresh;
      ] );
    ( "batch.obs",
      [
        Alcotest.test_case "slab peak gauge = capacity plan" `Quick
          test_slab_peak_is_capacity_plan;
        Alcotest.test_case "per-scenario span granularity" `Quick
          test_span_granularity;
        Alcotest.test_case "results identical with obs on/off" `Quick
          test_obs_identity;
        Alcotest.test_case "slow run_one allocation" `Quick
          test_slow_run_one_allocation;
      ] );
    ( "batch.spec",
      [
        Alcotest.test_case "scenario JSON happy path" `Quick
          test_parse_scenarios_ok;
        Alcotest.test_case "malformed specs raise structured errors (strict)"
          `Quick test_parse_scenarios_strict;
        Alcotest.test_case "malformed specs repair to defaults (repair)"
          `Quick test_parse_scenarios_repair;
        Alcotest.test_case "repairs are counted" `Quick
          test_parse_scenarios_repairs_counted;
        Alcotest.test_case "parsed spec runs bit-identically" `Quick
          test_parsed_scenarios_run;
      ] );
  ]
