(* Tests for the observability layer (lib/obs): span nesting and
   aggregation, counter determinism across Par domain counts, JSONL trace
   well-formedness, and the disabled-mode identity guarantee (analysis
   results are bit-identical with instrumentation on or off). *)

module Obs = Ssta_obs.Obs
module Par = Ssta_par.Par
module H = Hier_ssta
module Form = Ssta_canonical.Form
module Build = Ssta_timing.Build

(* Every test must leave the global Obs state as it found it: other suites
   (and the OBS_TRACE CI run) share the same registry and enabled flag. *)
let with_obs f =
  let saved = Obs.enabled () in
  Obs.reset ();
  Fun.protect ~finally:(fun () ->
      Obs.set_enabled saved;
      Obs.reset ())
  @@ fun () -> f ()

let module_build =
  lazy (Build.characterize (Ssta_circuit.Multiplier.make ~bits:4 ()))

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let test_span_nesting_aggregation () =
  with_obs @@ fun () ->
  Obs.enable ();
  for _ = 1 to 3 do
    Obs.with_span "t.outer" (fun () ->
        Obs.with_span "t.inner" (fun () -> Sys.opaque_identity ()))
  done;
  let stats name = List.assoc name (Obs.spans ()) in
  let outer = stats "t.outer" and inner = stats "t.inner" in
  Alcotest.(check int) "outer count" 3 outer.Obs.count;
  Alcotest.(check int) "inner count" 3 inner.Obs.count;
  Alcotest.(check bool) "durations non-negative" true
    (outer.Obs.seconds >= 0.0 && inner.Obs.seconds >= 0.0);
  (* The inner span is fully contained in the outer one. *)
  Alcotest.(check bool)
    (Printf.sprintf "outer (%.2e s) >= inner (%.2e s)" outer.Obs.seconds
       inner.Obs.seconds)
    true
    (outer.Obs.seconds >= inner.Obs.seconds)

let test_span_exception_safety () =
  with_obs @@ fun () ->
  Obs.enable ();
  (try Obs.with_span "t.exn" (fun () -> raise Exit) with Exit -> ());
  let s = List.assoc "t.exn" (Obs.spans ()) in
  Alcotest.(check int) "span closed despite exception" 1 s.Obs.count;
  (* And a subsequent span still aggregates normally (no dangling state). *)
  Obs.with_span "t.exn" (fun () -> ());
  let s = List.assoc "t.exn" (Obs.spans ()) in
  Alcotest.(check int) "span count after recovery" 2 s.Obs.count

let test_span_disabled_inert () =
  with_obs @@ fun () ->
  Obs.disable ();
  Obs.with_span "t.off" (fun () -> ());
  Alcotest.(check (float 0.0)) "no time recorded" 0.0 (Obs.span_seconds "t.off");
  Alcotest.(check bool) "no aggregate recorded" true
    (not (List.mem_assoc "t.off" (Obs.spans ())))

let test_counter_and_gauge_basics () =
  with_obs @@ fun () ->
  Obs.enable ();
  let c = Obs.counter "t.counter" in
  Obs.incr c;
  Obs.add c 41;
  Alcotest.(check int) "counter total" 42 (Obs.counter_value c);
  Alcotest.(check int) "find_counter" 42 (Obs.find_counter "t.counter");
  let g = Obs.gauge "t.gauge" in
  Obs.gauge_max g 7;
  Obs.gauge_max g 3;
  Alcotest.(check int) "gauge keeps high water" 7 (Obs.gauge_value g);
  Obs.reset ();
  Alcotest.(check int) "reset zeroes counter" 0 (Obs.counter_value c);
  Alcotest.(check int) "reset zeroes gauge" 0 (Obs.gauge_value g)

(* ------------------------------------------------------------------ *)
(* Counter merge across Par worker domains                             *)
(* ------------------------------------------------------------------ *)

let test_counter_totals_domain_invariant () =
  with_obs @@ fun () ->
  Obs.enable ();
  let c = Obs.counter "t.par" in
  let n_tasks = 16 in
  let expected = n_tasks * (n_tasks + 1) / 2 in
  List.iter
    (fun domains ->
      Obs.reset ();
      Par.with_domains domains (fun () ->
          Par.run_tasks ~n_tasks
            ~init:(fun () -> ())
            ~task:(fun () i -> Obs.add c (i + 1))
            ());
      Alcotest.(check int)
        (Printf.sprintf "total at %d domains" domains)
        expected (Obs.counter_value c))
    [ 1; 2; 4 ]

(* Satellite 4 of the issue: the criticality screen's eval/prune counters
   must not depend on how many domains ran the screen - the chunk layout
   is a pure function of the port counts, and Obs merges per-chunk counts
   commutatively.  Pinned here at 1 vs 4 domains, together with the
   already-guaranteed bit-equality of the keep mask and criticalities. *)
let test_criticality_counters_domain_invariant () =
  with_obs @@ fun () ->
  Obs.enable ();
  let b = Lazy.force module_build in
  (* The result counters are pinned invariant across BOTH the domain count
     and the tile size; the cone/tile bookkeeping counters are
     only domain-invariant (tiling legitimately rebuilds the cone lists
     once per tile). *)
  let result_counters =
    [
      "criticality.exact_evals";
      "criticality.screened_pairs";
      "criticality.kept_edges";
      "criticality.removed_edges";
    ]
  in
  let bookkeeping_counters =
    [
      "criticality.cone_edges";
      "criticality.backward_tiles";
    ]
  in
  let counters = result_counters @ bookkeeping_counters in
  let run domains tile =
    Obs.reset ();
    let crit =
      Par.with_domains domains (fun () ->
          H.Criticality.compute ?tile ~delta:0.05 b.Build.graph
            ~forms:b.Build.forms)
    in
    (crit, List.map (fun n -> (n, Obs.find_counter n)) counters)
  in
  let crit1, counts1 = run 1 None in
  let crit4, counts4 = run 4 None in
  List.iter2
    (fun (n, v1) (_, v4) ->
      Alcotest.(check int) (n ^ " invariant across domains") v1 v4)
    counts1 counts4;
  Alcotest.(check bool) "keep mask bit-equal" true
    (crit1.H.Criticality.keep = crit4.H.Criticality.keep);
  Alcotest.(check bool) "criticalities bit-equal" true
    (Array.for_all2
       (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)
       crit1.H.Criticality.cm crit4.H.Criticality.cm);
  (* The published counter agrees with the result record's own count. *)
  Alcotest.(check int) "exact_evals counter = record field"
    crit1.H.Criticality.exact_evals
    (List.assoc "criticality.exact_evals" counts1);
  (* Tiling the backward storage changes neither the results nor the
     result counters (only the bookkeeping ones may move). *)
  let critt, countst = run 4 (Some 3) in
  List.iter
    (fun n ->
      Alcotest.(check int)
        (n ^ " invariant across tile sizes")
        (List.assoc n counts1) (List.assoc n countst))
    result_counters;
  Alcotest.(check bool) "keep mask bit-equal under tiling" true
    (crit1.H.Criticality.keep = critt.H.Criticality.keep);
  Alcotest.(check bool) "criticalities bit-equal under tiling" true
    (Array.for_all2
       (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)
       crit1.H.Criticality.cm critt.H.Criticality.cm);
  let no = Array.length b.Build.graph.Ssta_timing.Tgraph.outputs in
  Alcotest.(check int) "backward_tiles = ceil(|O| / tile)"
    ((no + 2) / 3)
    (List.assoc "criticality.backward_tiles" countst)

(* The screen's exact visit counters on c1908 at the default delta and
   the auto tile, pinned at 1 and 4 domains.  They only change when the
   screen's arithmetic or visit order changes: [screened_pairs] counts
   scalar-screen disposals, [cone_edges] the active cone entries built,
   and the backward sweeps (one per output) are amortized into fixed blocks of at
   most ceil(25 / 8) = 4 outputs.  A fixed tile of 8 must reproduce the
   untiled results bit for bit. *)
let test_c1908_screen_counters () =
  with_obs @@ fun () ->
  Obs.enable ();
  let b = Build.characterize (Ssta_circuit.Iscas.build "c1908") in
  let g = b.Build.graph and forms = b.Build.forms in
  let pins =
    [
      ("criticality.screened_pairs", 24_684);
      ("criticality.exact_evals", 750_766);
      ("criticality.cone_edges", 50_412);
      ("criticality.backward_tiles", 1);
      ("propagate.backward_sweeps", 25);
      ("propagate.backward_blocks", 7);
    ]
  in
  let run ?tile domains =
    Obs.reset ();
    Par.with_domains domains (fun () ->
        H.Criticality.compute ?tile ~delta:0.05 g ~forms)
  in
  let untiled =
    List.map
      (fun domains ->
        let cr = run domains in
        List.iter
          (fun (name, want) ->
            Alcotest.(check int)
              (Printf.sprintf "%s at %d domains" name domains)
              want (Obs.find_counter name))
          pins;
        cr)
      [ 1; 4 ]
  in
  let cr = List.hd untiled in
  let tiled = run ~tile:8 1 in
  Alcotest.(check bool) "tile=8 keep mask bit-equal" true
    (tiled.H.Criticality.keep = cr.H.Criticality.keep);
  Alcotest.(check bool) "tile=8 criticalities bit-equal" true
    (Array.for_all2
       (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)
       tiled.H.Criticality.cm cr.H.Criticality.cm);
  Alcotest.(check (pair int int)) "tile=8 pair counters equal"
    (cr.H.Criticality.exact_evals, cr.H.Criticality.screened_pairs)
    (tiled.H.Criticality.exact_evals, tiled.H.Criticality.screened_pairs)

(* The design-grid PCA's Jacobi work on Fig. 7 (c6288 2x2, 100 tiles):
   9 sweeps, each rotating all 4 950 pairs, published once per decompose
   and pinned through the production path
   [Design_grid.build] at 1 and 4 domains.  The counts change only when
   the rotation sequence does.  Disabled, nothing is published. *)
let test_fig7_jacobi_counters () =
  with_obs @@ fun () ->
  let fp = Test_linalg.fig7_floorplan () in
  let counts () =
    (Obs.find_counter "linalg.jacobi_sweeps", Obs.find_counter "linalg.jacobi_rotations")
  in
  List.iter
    (fun domains ->
      Obs.reset ();
      Obs.enable ();
      ignore (Par.with_domains domains (fun () -> H.Design_grid.build fp));
      Alcotest.(check (pair int int))
        (Printf.sprintf "sweeps, rotations at %d domains" domains)
        (9, 44_550) (counts ()))
    [ 1; 4 ];
  Obs.reset ();
  Obs.disable ();
  ignore (Ssta_linalg.Sym_eig.decompose (Lazy.force Test_linalg.fig7_covariance));
  Alcotest.(check (pair int int)) "nothing published when disabled" (0, 0) (counts ())

(* ------------------------------------------------------------------ *)
(* JSONL trace sink                                                    *)
(* ------------------------------------------------------------------ *)

(* Minimal flat-JSON parser, just enough for the trace schema: one object
   per line, string keys, string or number values, no nesting.  Failing
   to parse IS the test failure. *)
type jval = S of string | F of float

let parse_line line =
  let n = String.length line in
  let pos = ref 0 in
  let fail msg =
    Alcotest.fail (Printf.sprintf "%s at %d in %s" msg !pos line)
  in
  let peek () = if !pos < n then line.[!pos] else '\000' in
  let expect c =
    if peek () <> c then fail (Printf.sprintf "expected '%c'" c);
    incr pos
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match line.[!pos] with
        | '"' -> incr pos
        | '\\' ->
            incr pos;
            if !pos >= n then fail "dangling escape";
            Buffer.add_char buf line.[!pos];
            incr pos;
            go ()
        | c ->
            Buffer.add_char buf c;
            incr pos;
            go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    while
      !pos < n
      &&
      match line.[!pos] with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    do
      incr pos
    done;
    match float_of_string_opt (String.sub line start (!pos - start)) with
    | Some f -> F f
    | None -> fail "bad number"
  in
  expect '{';
  let fields = ref [] in
  let rec members () =
    let k = parse_string () in
    expect ':';
    let v = if peek () = '"' then S (parse_string ()) else parse_number () in
    fields := (k, v) :: !fields;
    if peek () = ',' then begin
      incr pos;
      members ()
    end
  in
  if peek () <> '}' then members ();
  expect '}';
  if !pos <> n then fail "trailing characters";
  List.rev !fields

let field fields k =
  match List.assoc_opt k fields with
  | Some v -> v
  | None -> Alcotest.fail (Printf.sprintf "missing field %S" k)

let test_trace_jsonl_wellformed () =
  with_obs @@ fun () ->
  let path = Filename.temp_file "obs_trace" ".jsonl" in
  Fun.protect ~finally:(fun () ->
      Obs.close_trace ();
      Sys.remove path)
  @@ fun () ->
  Obs.trace_to_file path;
  Obs.enable ();
  (* A parallel MC run: chunk spans are recorded from worker domains, so
     the trace interleaves events of several [dom] ids. *)
  let b = Lazy.force module_build in
  let ctx = Ssta_mc.Sampler.ctx_of_build b in
  ignore
    (Par.with_domains 4 (fun () ->
         Ssta_mc.Flat_mc.run ~iterations:2048 ~seed:11 ctx));
  Obs.close_trace ();
  Obs.disable ();
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  let lines = List.rev !lines in
  Alcotest.(check bool) "trace non-empty" true (List.length lines > 0);
  (* Every line parses; B/E events balance per domain; timestamps are
     non-negative and events carry the documented fields. *)
  let balance = Hashtbl.create 8 in
  let saw_counter = ref false in
  List.iter
    (fun line ->
      let fields = parse_line line in
      match field fields "ev" with
      | S "B" ->
          let dom =
            match field fields "dom" with
            | F d -> int_of_float d
            | S _ -> Alcotest.fail "dom not a number"
          in
          (match field fields "t" with
          | F t -> Alcotest.(check bool) "t >= 0" true (t >= 0.0)
          | S _ -> Alcotest.fail "t not a number");
          ignore (field fields "name");
          Hashtbl.replace balance dom
            (1 + Option.value ~default:0 (Hashtbl.find_opt balance dom))
      | S "E" ->
          let dom =
            match field fields "dom" with
            | F d -> int_of_float d
            | S _ -> Alcotest.fail "dom not a number"
          in
          (match field fields "dur_s" with
          | F d -> Alcotest.(check bool) "dur_s >= 0" true (d >= 0.0)
          | S _ -> Alcotest.fail "dur_s not a number");
          let depth =
            Option.value ~default:0 (Hashtbl.find_opt balance dom) - 1
          in
          Alcotest.(check bool) "E never precedes its B" true (depth >= 0);
          Hashtbl.replace balance dom depth
      | S "C" | S "G" ->
          saw_counter := true;
          (match field fields "v" with
          | F _ -> ()
          | S _ -> Alcotest.fail "v not a number")
      | S ev -> Alcotest.fail (Printf.sprintf "unknown event %S" ev)
      | F _ -> Alcotest.fail "ev not a string")
    lines;
  Hashtbl.iter
    (fun dom depth ->
      Alcotest.(check int)
        (Printf.sprintf "spans balance on domain %d" dom)
        0 depth)
    balance;
  Alcotest.(check bool) "close_trace flushed counter totals" true !saw_counter

(* A serve session builds its batch base once, and the base keeps its
   worker scratch: 20 scenario quantiles in a row, each a fresh scenario
   record, build one slab between them.  Sent again, all 20 are answered
   from the session's scenario memo without a sweep. *)
let test_serve_scratch_builds () =
  with_obs @@ fun () ->
  Obs.enable ();
  Par.with_domains 1 @@ fun () ->
  let t = Ssta_serve.Serve.create () in
  let ok line =
    let r = Ssta_serve.Serve.handle_line t line in
    match Ssta_json.Json.parse r with
    | Ok j when Ssta_json.Json.bool_field "ok" j = Ok true -> ()
    | _ -> Alcotest.failf "request %s failed: %s" line r
  in
  ok {|{"op":"load","design":"c432"}|};
  let quantiles () =
    for i = 1 to 20 do
      ok
        (Printf.sprintf
           {|{"op":"quantile","yield":0.99,"scenario":{"corner":"%s","delay_scale":%g}}|}
           (if i mod 2 = 0 then "slow" else "fast")
           (1.0 +. (0.01 *. float_of_int i)))
    done
  in
  quantiles ();
  Alcotest.(check int) "batch.scenarios" 20
    (Obs.find_counter "batch.scenarios");
  Alcotest.(check int) "batch.scratch_builds" 1
    (Obs.find_counter "batch.scratch_builds");
  Alcotest.(check int) "no memo hit on first sight" 0
    (Obs.find_counter "serve.scenario_memo_hits");
  quantiles ();
  Alcotest.(check int) "repeats add no batch.scenarios" 20
    (Obs.find_counter "batch.scenarios");
  Alcotest.(check int) "serve.scenario_memo_hits" 20
    (Obs.find_counter "serve.scenario_memo_hits")

(* ------------------------------------------------------------------ *)
(* Disabled-mode identity                                              *)
(* ------------------------------------------------------------------ *)

let test_disabled_mode_identity () =
  with_obs @@ fun () ->
  let b = Lazy.force module_build in
  let ctx = Ssta_mc.Sampler.ctx_of_build b in
  let run () =
    let model = H.Extract.extract ~delta:0.05 b in
    let mc =
      Par.with_domains 2 (fun () ->
          Ssta_mc.Flat_mc.run ~iterations:1024 ~seed:5 ctx)
    in
    (model.H.Timing_model.forms, mc.Ssta_mc.Flat_mc.delays)
  in
  Obs.disable ();
  let forms_off, delays_off = run () in
  Obs.enable ();
  let forms_on, delays_on = run () in
  Obs.disable ();
  Alcotest.(check bool) "extracted forms bit-identical" true
    (forms_off = forms_on);
  Alcotest.(check bool) "MC delays bit-identical" true
    (Array.for_all2
       (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)
       delays_off delays_on)

let suites =
  [
    ( "obs.spans",
      [
        Alcotest.test_case "nesting and aggregation" `Quick
          test_span_nesting_aggregation;
        Alcotest.test_case "exception safety" `Quick test_span_exception_safety;
        Alcotest.test_case "disabled spans inert" `Quick
          test_span_disabled_inert;
        Alcotest.test_case "counter and gauge basics" `Quick
          test_counter_and_gauge_basics;
      ] );
    ( "obs.par",
      [
        Alcotest.test_case "counter totals domain-invariant" `Quick
          test_counter_totals_domain_invariant;
        Alcotest.test_case "criticality counters domain-invariant" `Quick
          test_criticality_counters_domain_invariant;
        Alcotest.test_case "fig7 jacobi counters pinned" `Quick
          test_fig7_jacobi_counters;
        Alcotest.test_case "c1908 screen counters pinned" `Quick
          test_c1908_screen_counters;
        Alcotest.test_case "serve quantiles build one batch slab" `Quick
          test_serve_scratch_builds;
      ] );
    ( "obs.trace",
      [
        Alcotest.test_case "JSONL well-formed and balanced" `Quick
          test_trace_jsonl_wellformed;
      ] );
    ( "obs.identity",
      [
        Alcotest.test_case "disabled mode bit-identical" `Quick
          test_disabled_mode_identity;
      ] );
  ]
