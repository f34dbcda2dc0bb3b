(* The ledger benchmark: one workload per process.

     run.exe --workload NAME --seed N --seconds S --trace 0|1
     run.exe --smoke

   Prints the ledger lines, then as the last line of stdout one JSON
   object {correct, attempted, failed, metrics}: the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1, named and with
   the units BENCHMARK.json gives them (read from the current directory,
   the repository root).  A traced run also writes its spans as JSONL
   under _build/ledger/.  Exits 1 when an output check failed, 2 on a
   usage error. *)

module Json = Ssta_json.Json
module Obs = Ssta_obs.Obs
module Trace = Ledger.Trace
module Metrics = Ledger.Metrics

(* Pinned so every machine runs the configuration the bounds came from. *)
let domains = 2

let workloads =
  [
    ("iscas-extract", W_extract.iscas);
    ("grid100k", W_extract.grid);
    ("hier-soc", W_hier.run);
    ("serve-eco", W_serve.run);
  ]

let usage () =
  prerr_endline
    "usage: run.exe --workload (iscas-extract|grid100k|hier-soc|serve-eco) \
     --seed N --seconds S --trace 0|1\n\
    \       run.exe --smoke";
  exit 2

(* Per-layer values of a traced run, for every per-layer metric of the
   dictionary; one the workload does not produce reads 0. *)
let per_layer ~(dict : Metrics.dictionary) ~(r : Flow.result) ~spans =
  let self = Trace.self_times spans in
  let wall = Trace.roots_seconds spans in
  let self_of names =
    List.fold_left
      (fun acc n -> acc +. Option.value ~default:0.0 (List.assoc_opt n self))
      0.0 names
  in
  let pct s = if wall > 0.0 then 100.0 *. s /. wall else 0.0 in
  let roots =
    List.sort_uniq compare
      (List.filter_map
         (fun (s : Trace.span) -> if s.Trace.parent < 0 then Some s.Trace.name else None)
         spans)
  in
  let glue = self_of roots in
  let coverage = pct (wall -. glue) in
  let counts =
    Trace.counters_per_op spans ~per_op:(fun root ->
        Float.max 1.0 (Option.value ~default:1.0 (List.assoc_opt root r.Flow.per_op)))
  in
  let generic =
    List.map (fun (m, names) -> (m, pct (self_of names))) Metrics.shares
    @ [
        ("bench.glue_pct", pct glue);
        ("trace.coverage_pct", coverage);
        ("trace.overhead_pct", r.Flow.overhead_pct);
      ]
    @ List.map (fun n -> (n, Option.value ~default:0.0 (List.assoc_opt n counts))) Metrics.counters
    @ [
        ( "robust.repairs",
          List.fold_left
            (fun acc (n, v) -> if String.starts_with ~prefix:"robust." n then acc +. v else acc)
            0.0 counts );
        ("gc.alloc_mb", r.Flow.gc_alloc_mb /. float_of_int (max 1 r.Flow.attempted));
        ( "gc.major_collections",
          float_of_int r.Flow.gc_majors /. float_of_int (max 1 r.Flow.attempted) );
        ("gc.top_heap_mb", r.Flow.memory.Flow.top_heap_mb);
      ]
  in
  let values = generic @ r.Flow.e2e @ r.Flow.layer in
  ( List.map
      (fun (s : Metrics.spec) ->
        (s, Option.value ~default:0.0 (List.assoc_opt s.Metrics.name values)))
      dict.Metrics.per_layer,
    self,
    wall,
    coverage )

let print_self_table self wall =
  Printf.printf "  %-28s %10s %7s\n" "layer (self time)" "seconds" "share";
  List.iter
    (fun (n, s) ->
      Printf.printf "  %-28s %10.4f %6.2f%%\n" n s (100.0 *. s /. wall))
    (List.sort (fun (_, a) (_, b) -> Float.compare b a) self)

let write_trace ~workload ~seed ~(r : Flow.result) ~self ~wall ~coverage =
  let dir = Filename.concat "_build" "ledger" in
  (try Sys.mkdir "_build" 0o755 with Sys_error _ -> ());
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let path = Filename.concat dir (Printf.sprintf "%s-seed%d.trace.jsonl" workload seed) in
  let num v = Json.Num v in
  let epoch =
    List.fold_left (fun acc (s : Trace.span) -> Float.min acc s.Trace.start)
      infinity !Trace.spans
  in
  let summary =
    List.map
      (fun (n, s) ->
        Json.Obj
          [
            ("ev", Json.Str "layer");
            ("name", Json.Str n);
            ("self_s", num s);
            ("pct", num (100.0 *. s /. wall));
          ])
      self
    @ [
        Json.Obj
          [
            ("ev", Json.Str "obs_totals");
            ( "spans",
              Json.Obj
                (List.map
                   (fun (n, (st : Obs.span_stats)) ->
                     ( n,
                       Json.Obj
                         [
                           ("count", num (float_of_int st.Obs.count));
                           ("seconds", num st.Obs.seconds);
                         ] ))
                   (Obs.spans ())) );
            ( "counters",
              Json.Obj
                (List.filter_map
                   (fun (n, v) -> if v = 0 then None else Some (n, num (float_of_int v)))
                   (Obs.counters ())) );
          ];
        Json.Obj
          [
            ("ev", Json.Str "summary");
            ("workload", Json.Str workload);
            ("seed", num (float_of_int seed));
            ("domains", num (float_of_int domains));
            ("traced_ops", num (float_of_int r.Flow.traced_ops));
            ("traced_wall_s", num wall);
            ("coverage_pct", num coverage);
            ("overhead_pct", num r.Flow.overhead_pct);
            ("e2e", Json.Obj (List.map (fun (n, v) -> (n, num v)) r.Flow.e2e));
          ];
      ]
  in
  Trace.write_jsonl path ~epoch ~summary;
  path

let finite v = if Float.is_finite v then v else 0.0

let result_json ~attempted metrics =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (!Flow.failures = 0));
         ("attempted", Json.Num (float_of_int (max 1 attempted)));
         ("failed", Json.Num (float_of_int !Flow.failures));
         ( "metrics",
           Json.Obj
             (List.map
                (fun ((s : Metrics.spec), v) ->
                  ( s.Metrics.name,
                    Json.Obj
                      [ ("value", Json.Num (finite v)); ("unit", Json.Str s.Metrics.unit) ] ))
                metrics) );
       ])

let run_one ~dict ~workload ~seed ~seconds ~trace =
  let f = List.assoc workload workloads in
  Printf.printf "ledger %s seed=%d seconds=%g trace=%b domains=%d\n%!" workload
    seed seconds trace domains;
  Trace.reset ();
  Obs.reset ();
  let r =
    try f ~seed ~seconds ~trace
    with e ->
      Flow.fail "%s raised %s" workload (Printexc.to_string e);
      print_endline (result_json ~attempted:1 []);
      exit 1
  in
  let measured =
    [ ("setup_s", r.Flow.setup_s) ]
    @ r.Flow.e2e
    @ [ ("peak_rss_mb", r.Flow.memory.Flow.rss_mb) ]
  in
  List.iter (fun (n, v) -> Printf.printf "  %-14s %14.4f\n" n v) measured;
  let e2e =
    List.map
      (fun (s : Metrics.spec) ->
        let v = Option.value ~default:nan (List.assoc_opt s.Metrics.name measured) in
        if not (Float.is_finite v && v > 0.0) then
          Flow.fail "%s: end-to-end metric %s = %g" workload s.Metrics.name v;
        (s, v))
      dict.Metrics.end_to_end
  in
  let metrics =
    if not trace then e2e
    else begin
      let spans = !Trace.spans in
      let values, self, wall, coverage = per_layer ~dict ~r ~spans in
      print_self_table self wall;
      let path = write_trace ~workload ~seed ~r ~self ~wall ~coverage in
      Printf.printf
        "  traced wall %.3f s over %d ops; layers cover %.1f%%; tracing overhead %+.2f%%; spans in %s\n"
        wall r.Flow.traced_ops coverage r.Flow.overhead_pct path;
      values
    end
  in
  (r.Flow.attempted, metrics)

let () =
  let workload = ref None and seed = ref 42 and seconds = ref 10.0 in
  let trace = ref false and smoke = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest when List.mem_assoc w workloads ->
        workload := Some w;
        parse rest
    | "--seed" :: n :: rest when int_of_string_opt n <> None ->
        seed := int_of_string n;
        parse rest
    | "--seconds" :: s :: rest when Option.fold ~none:false ~some:(fun v -> v > 0.0) (float_of_string_opt s) ->
        seconds := float_of_string s;
        parse rest
    | "--trace" :: ("0" | "1" as t) :: rest ->
        trace := t = "1";
        parse rest
    | "--smoke" :: rest ->
        smoke := true;
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let dict =
    try Metrics.load "BENCHMARK.json"
    with Failure e ->
      prerr_endline e;
      exit 2
  in
  Ssta_par.Par.set_domains domains;
  if !smoke then begin
    (* One short pass of every workload at the golden seed, all checks. *)
    List.iter
      (fun (w, _) ->
        let attempted, metrics =
          run_one ~dict ~workload:w ~seed:42 ~seconds:1.0 ~trace:false
        in
        print_endline (result_json ~attempted metrics))
      workloads;
    exit (if !Flow.failures = 0 then 0 else 1)
  end;
  match !workload with
  | None -> usage ()
  | Some w ->
      let attempted, metrics =
        run_one ~dict ~workload:w ~seed:!seed ~seconds:!seconds ~trace:!trace
      in
      print_endline (result_json ~attempted metrics);
      exit (if !Flow.failures = 0 then 0 else 1)
