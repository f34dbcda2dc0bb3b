(* The ledger's metrics.  BENCHMARK.json at the repository root is the
   dictionary: name, unit, direction and bound of every end-to-end and
   per-layer metric.  The runner and the compare tool both read it with
   [load]; this module only maps per-layer metrics onto the spans and
   counters they are computed from.

   Every workload reports every metric.  End-to-end metrics are measured
   untraced; per-layer metrics come from a traced run, where a layer that
   the workload never calls reads 0. *)

type spec = {
  name : string;
  unit : string;
  better : Verdict.better;
  bound : float option;  (** None for per-layer metrics *)
}

type dictionary = { end_to_end : spec list; per_layer : spec list }

let load path =
  let fail msg = failwith (Printf.sprintf "%s: %s" path msg) in
  let j =
    match In_channel.with_open_text path In_channel.input_all with
    | exception Sys_error e -> failwith e
    | s -> ( match Ssta_json.Json.parse s with Ok j -> j | Error e -> fail e)
  in
  let module Json = Ssta_json.Json in
  let str key m = Option.bind (Json.find key m) Json.to_str in
  let spec m =
    match (str "name" m, str "unit" m, Option.bind (str "better" m) Verdict.better_of_string) with
    | Some name, Some unit, Some better ->
        { name; unit; better; bound = Option.bind (Json.find "bound" m) Json.to_num }
    | _ -> fail "malformed metric entry"
  in
  let list key =
    match Json.find key j with
    | Some (Json.Arr l) -> List.map spec l
    | _ -> fail ("no " ^ key ^ " list")
  in
  { end_to_end = list "end_to_end"; per_layer = list "per_layer" }

(* Self-time shares of the traced wall clock: metric -> the span names
   (bench spans and harvested Obs spans) whose self time it sums. *)
let shares =
  [
    ("frontend.parse_pct", [ "frontend.parse" ]);
    ("frontend.lower_pct", [ "frontend.lower" ]);
    ("timing.characterize_pct", [ "timing.characterize"; "build.characterize" ]);
    ("frontend.report_checks_pct", [ "frontend.report_checks" ]);
    ("extract.other_pct", [ "extract" ]);
    ("criticality.other_pct", [ "extract.criticality" ]);
    ("criticality.backward_pct", [ "criticality.backward" ]);
    ("criticality.screen_pct", [ "criticality.screen" ]);
    ("extract.reduce_pct", [ "extract.reduce" ]);
    ("extract.freeze_pct", [ "extract.freeze" ]);
    ("extract.output_load_pct", [ "extract.output_load" ]);
    ("model_io.write_pct", [ "model_io.write" ]);
    ("design_grid.build_pct", [ "design_grid.build" ]);
    ("design_grid.pca_pct", [ "design_grid.pca" ]);
    ("hier.setup_pct", [ "hier.setup" ]);
    ("replace.transform_pct", [ "replace.transform_instance"; "replace.matrix" ]);
    ("hier.propagate_pct", [ "hier.propagate" ]);
    ("hier_analysis.other_pct", [ "hier_analysis.analyze" ]);
    ("serve.protocol_pct", [ "serve.handle_lines"; "serve.request" ]);
    ("serve.quantile_pct", [ "serve.op.quantile" ]);
    ("serve.scenario_pct", [ "batch.run" ]);
    ("serve.whatif_pct", [ "serve.op.whatif" ]);
    ("serve.paths_pct", [ "serve.op.paths" ]);
    ("serve.report_pct", [ "serve.op.report" ]);
    ("serve.revert_pct", [ "serve.op.revert" ]);
    ("bench.idle_pct", [ "bench.idle" ]);
  ]

(* Obs counters reported per op under their own names. *)
let counters =
  [
    "criticality.exact_evals";
    "criticality.screened_pairs";
    "propagate.backward_blocks";
    "reduce.serial_merges";
    "reduce.parallel_merges";
    "replace.forms_transformed";
    "propagate.update_vertices";
    "serve.shared_sweeps";
  ]
