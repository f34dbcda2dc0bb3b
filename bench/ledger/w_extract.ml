(* The two extraction workloads: design text -> Design.parse -> lower ->
   Build.characterize [-> Design.report_checks] -> Extract.extract ->
   Model_io.to_string.

   iscas-extract runs the ten Table I circuits: small, cache-resident
   graphs with many outputs, where the criticality backward and screen
   phases dominate and reduce is negligible.  The text is fixed; the seed
   feeds the Monte Carlo reference only.  Its op is a pass over the ten,
   but each circuit is timed on its own (Flow.loop parts): the small
   circuits repeat while c7552, about two thirds of a pass, runs once, so
   the pass time is assembled from per-circuit medians.

   grid100k runs a ~102k-gate Large.of_gates design made from the seed:
   extraction is bound by exact pair evaluations, reduce, the frontend
   and characterization carry real weight, and the working set is far
   beyond cache.  report_checks is left out: Path_report.top_paths is
   quadratic in path depth and takes minutes at this size. *)

open Flow
module D = Ssta_frontend.Design
module Build = Ssta_timing.Build
module Gen = Ledger.Gen
module Form = Ssta_canonical.Form

let mc_iterations = 1000

type pass = { build : Build.t; model : H.Timing_model.t; text : string }

let pass ?cells_per_tile ~signoff (t : Gen.text) =
  let d =
    Trace.span "frontend.parse" (fun () ->
        D.parse ~verilog:t.Gen.verilog ~liberty:t.Gen.liberty ~sdc:t.Gen.sdc ())
  in
  let low = Trace.span "frontend.lower" (fun () -> D.lower d) in
  let build =
    Trace.span ~harvest:true "timing.characterize" (fun () ->
        Build.characterize ?cells_per_tile low.D.netlist)
  in
  if signoff then
    ignore
      (Trace.span "frontend.report_checks" (fun () ->
           D.report_checks low ~build) : D.checks);
  let model = Trace.span ~harvest:true "extract" (fun () -> H.Extract.extract build) in
  let text = Trace.span "model_io.write" (fun () -> H.Model_io.to_string model) in
  { build; model; text }

let kept_pct passes =
  let sum f = Array.fold_left (fun acc p -> acc + f p.model.H.Timing_model.stats) 0 passes in
  100.0
  *. float_of_int (sum (fun s -> s.H.Timing_model.model_edges))
  /. float_of_int (sum (fun s -> s.H.Timing_model.original_edges))

let text_bytes passes =
  float_of_int (Array.fold_left (fun acc p -> acc + String.length p.text) 0 passes)

(* Design text bytes parsed in the traced runs. *)
let traced_bytes (ops : ops) texts =
  let n = ref 0 in
  Array.iteri (fun i t -> n := !n + (Gen.text_bytes t * Array.length ops.traced.(i))) texts;
  !n

let iscas ~seed ~seconds ~trace =
  let names = Ssta_circuit.Iscas.names in
  let texts, su =
    setup (fun () ->
        Array.map (fun n -> Gen.design_text (Ssta_circuit.Iscas.build n)) names)
  in
  let last = Array.make (Array.length names) None in
  let ops =
    loop ~seconds ~trace ~names ~setup:su
      ~after:(fun i ->
        match last.(i) with
        | Some p -> check_model ~key:names.(i) p.model p.text
        | None -> fail "%s: no model" names.(i))
      (fun i ->
        last.(i) <- None;
        last.(i) <- Some (pass ~signoff:true texts.(i)))
  in
  let passes = Array.map Option.get last in
  (* Accuracy after the timed phase: every circuit's model IO delays
     against a seeded all-pairs Monte Carlo of the full graph. *)
  let mc_s = ref 0.0 and merr = ref 0.0 and verr = ref 0.0 in
  Array.iteri
    (fun i p ->
      let mc =
        Ssta_mc.Allpairs_mc.run ~iterations:mc_iterations ~seed
          (Ssta_mc.Sampler.ctx_of_build p.build)
      in
      mc_s := !mc_s +. mc.Ssta_mc.Allpairs_mc.wall_seconds;
      let me, ve = io_errors (H.Timing_model.io_delays p.model) mc in
      let runs = Array.append ops.untraced.(i) ops.traced.(i) in
      Printf.printf
        "  %-6s %5d -> %4d edges  merr %5.2f%%  verr %5.2f%%  %3d runs, median %9.2f ms\n"
        names.(i) p.model.H.Timing_model.stats.H.Timing_model.original_edges
        p.model.H.Timing_model.stats.H.Timing_model.model_edges (100.0 *. me)
        (100.0 *. ve) (Array.length runs)
        (1000.0 *. Stats.median runs);
      merr := Float.max !merr me;
      verr := Float.max !verr ve)
    passes;
  (* Worst pair over ~10^4 IO pairs.  Seeds 1-10 and 42 give 2.5-3.3 %
     (mean) and 5.5-9.8 % (sigma): the model's own error plus the Monte
     Carlo's, whose standard error on a sigma is ~2.2 % at 1000
     iterations. *)
  check (!merr < 0.05) "iscas: max IO mean error %.4f >= 0.05" !merr;
  check (!verr < 0.15) "iscas: max IO sigma error %.4f >= 0.15" !verr;
  Printf.printf "iscas-extract: max merr %.2f%% verr %.2f%%\n" (100.0 *. !merr)
    (100.0 *. !verr);
  finish ~trace ~setup:su ~ops
    ~layer:
      [
        ("extract.kept_pct", kept_pct passes);
        ("model_io.bytes", text_bytes passes);
        ("frontend.parse_mb_per_s", parse_mb_per_s ~traced_bytes:(traced_bytes ops texts));
        ( "mc.allpairs_iters_per_s",
          float_of_int (mc_iterations * Array.length passes) /. !mc_s );
        ("accuracy.mean_err_pct", 100.0 *. !merr);
        ("accuracy.sigma_err_pct", 100.0 *. !verr);
      ]

let grid_gates = 100_000

(* Design delay (max over outputs) of a graph's all-inputs sweep. *)
let design_delay (g : Ssta_timing.Tgraph.t) forms =
  let arr = H.Propagate.forward g ~forms ~sources:g.Ssta_timing.Tgraph.inputs in
  Option.get (H.Propagate.max_over arr g.Ssta_timing.Tgraph.outputs)

let grid ~seed ~seconds ~trace =
  let text, su = setup (fun () -> Gen.grid_text ~seed ~gates:grid_gates) in
  let first = ref None and last = ref None in
  let ops =
    loop ~seconds ~trace ~names:[| "pass" |] ~setup:su
      ~after:(fun _ ->
        match !last with
        | None -> fail "grid100k: no model"
        | Some p ->
            let d = model_digest p.text in
            (match !first with
            | None -> first := Some d
            | Some d0 -> check (d = d0) "grid100k: model differs from the first pass's");
            if seed = 42 then check_model ~key:"grid100k@42" p.model p.text)
      (fun _ ->
        last := None;
        last := Some (pass ~cells_per_tile:Gen.grid_cells_per_tile ~signoff:false text))
  in
  let p = Option.get !last in
  let m = p.model in
  check
    (H.Timing_model.n_inputs m = 32 && H.Timing_model.n_outputs m = 32)
    "grid100k: model has %d inputs, %d outputs, expected 32/32"
    (H.Timing_model.n_inputs m) (H.Timing_model.n_outputs m);
  (* Accuracy: the model's design delay against the full graph's. *)
  let full = design_delay p.build.Build.graph p.build.Build.forms in
  let red = design_delay m.H.Timing_model.graph m.H.Timing_model.forms in
  let merr = Float.abs (red.Form.mean -. full.Form.mean) /. full.Form.mean in
  let verr = Float.abs (Form.std red -. Form.std full) /. Form.std full in
  check (merr < 0.01 && verr < 0.05)
    "grid100k: model design delay off by %.4f (mean) / %.4f (sigma)" merr verr;
  let st = m.H.Timing_model.stats in
  Printf.printf
    "grid100k: %d passes; %d -> %d edges, %d exact evals; delay err %.3f%% / %.3f%%\n"
    (Array.length ops.untraced.(0) + Array.length ops.traced.(0))
    st.H.Timing_model.original_edges st.H.Timing_model.model_edges
    st.H.Timing_model.exact_evals (100.0 *. merr) (100.0 *. verr);
  finish ~trace ~setup:su ~ops
    ~layer:
      [
        ("extract.kept_pct", kept_pct [| p |]);
        ("model_io.bytes", text_bytes [| p |]);
        ("frontend.parse_mb_per_s", parse_mb_per_s ~traced_bytes:(traced_bytes ops [| text |]));
        ("accuracy.mean_err_pct", 100.0 *. merr);
        ("accuracy.sigma_err_pct", 100.0 *. verr);
      ]
