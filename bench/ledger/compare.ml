(* Parent-vs-change comparison of ledger runs.

     compare.exe PARENT_DIR CHANGE_DIR

   Each directory holds one file per run named WORKLOAD.K.json with the
   run's stdout (its last line is the result object).  Run K of the parent
   and run K of the change form pair K; alternate which side runs first
   from one pair to the next.  Prints, per workload, each side's attempted
   and failed ops, then one row per metric: each side's median and
   quartiles, the change's wins and the verdict of Ledger.Verdict under
   the bounds in BENCHMARK.json, read from the current directory (the
   repository root).  Exits 1 when some metric got worse, or when the
   change failed more ops than the parent or failed an output check. *)

module Json = Ssta_json.Json
module Verdict = Ledger.Verdict
module Metrics = Ledger.Metrics

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("compare: " ^ m); exit 2) fmt

let read path =
  match In_channel.with_open_text path In_channel.input_all with
  | s -> s
  | exception Sys_error e -> fail "%s" e

type run = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
}

(* The result object on the last non-empty line of a run's stdout. *)
let parse_run path =
  let last =
    match
      List.rev
        (List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' (read path)))
    with
    | l :: _ -> l
    | [] -> fail "%s is empty" path
  in
  let j = match Json.parse last with Ok j -> j | Error e -> fail "%s: %s" path e in
  let int key =
    match Option.bind (Json.find key j) Json.to_num with
    | Some v -> int_of_float v
    | None -> fail "%s: no %s" path key
  in
  {
    correct =
      (match Option.bind (Json.find "correct" j) Json.to_bool with
      | Some b -> b
      | None -> fail "%s: no correct" path);
    attempted = int "attempted";
    failed = int "failed";
    metrics =
      (match Json.find "metrics" j with
      | Some (Json.Obj l) ->
          List.filter_map
            (fun (n, m) ->
              Option.map (fun v -> (n, v)) (Option.bind (Json.find "value" m) Json.to_num))
            l
      | _ -> fail "%s: no metrics object" path);
  }

(* (workload, pair index) -> run *)
let runs dir =
  let files = try Sys.readdir dir with Sys_error e -> fail "%s" e in
  Array.to_list files
  |> List.filter_map (fun f ->
         match String.split_on_char '.' f with
         | [ w; k; "json" ] when int_of_string_opt k <> None ->
             Some ((w, int_of_string k), parse_run (Filename.concat dir f))
         | _ -> None)

let () =
  let parent_dir, change_dir =
    match Array.to_list Sys.argv with
    | [ _; p; c ] -> (p, c)
    | _ -> fail "usage: compare.exe PARENT_DIR CHANGE_DIR"
  in
  let dict = try Metrics.load "BENCHMARK.json" with Failure e -> fail "%s" e in
  let specs = dict.Metrics.end_to_end @ dict.Metrics.per_layer in
  let parent = runs parent_dir and change = runs change_dir in
  let workloads =
    List.sort_uniq compare (List.map (fun ((w, _), _) -> w) parent)
    |> List.filter (fun w -> List.exists (fun ((w', _), _) -> w = w') change)
  in
  if workloads = [] then fail "no workload has runs on both sides";
  Printf.printf "%-14s %-26s %-6s %34s %34s %7s  %s\n" "workload" "metric" "unit"
    "parent median [q1, q3]" "change median [q1, q3]" "wins" "verdict";
  let bad = ref false in
  List.iter
    (fun w ->
      (* pair indices present on both sides *)
      let ks side = List.filter_map (fun ((w', k), _) -> if w = w' then Some k else None) side in
      let pairs = List.filter (fun k -> List.mem k (ks change)) (List.sort compare (ks parent)) in
      let side_runs side = List.map (fun k -> List.assoc (w, k) side) pairs in
      let failures side =
        List.fold_left
          (fun (f : Verdict.failures) r ->
            { Verdict.failed = f.Verdict.failed + r.failed;
              incorrect = (f.Verdict.incorrect + if r.correct then 0 else 1) })
          { Verdict.failed = 0; incorrect = 0 } (side_runs side)
      in
      let attempted side = List.fold_left (fun acc r -> acc + r.attempted) 0 (side_runs side) in
      let pf = failures parent and cf = failures change in
      let gains_count = Verdict.gains_count ~parent:pf ~change:cf in
      Printf.printf
        "%-14s %d pairs; parent %d ops, %d failed, %d runs incorrect; change %d ops, %d failed, %d runs incorrect%s\n"
        w (List.length pairs) (attempted parent) pf.Verdict.failed pf.Verdict.incorrect
        (attempted change) cf.Verdict.failed cf.Verdict.incorrect
        (if gains_count then "" else ": no gain counts");
      if not gains_count then bad := true;
      if List.length pairs < Verdict.min_pairs then
        Printf.printf "%-14s only %d pairs: a gain needs %d\n" w (List.length pairs)
          Verdict.min_pairs;
      List.iter
        (fun (s : Metrics.spec) ->
          let values side =
            List.filter_map (fun r -> List.assoc_opt s.Metrics.name r.metrics) (side_runs side)
            |> Array.of_list
          in
          let p = values parent and c = values change in
          if Array.length p = List.length pairs && Array.length c = Array.length p && p <> [||]
          then begin
            let r =
              Verdict.judge ~gains_count ~better:s.Metrics.better ~bound:s.Metrics.bound
                ~parent:p ~change:c ()
            in
            let q (a, m, b) = Printf.sprintf "%.6g [%.6g, %.6g]" m a b in
            if r.Verdict.verdict = Verdict.Worse then bad := true;
            Printf.printf "%-14s %-26s %-6s %34s %34s %3d/%-3d  %s\n" w s.Metrics.name
              s.Metrics.unit (q r.Verdict.parent_q) (q r.Verdict.change_q) r.Verdict.wins
              r.Verdict.pairs (Verdict.to_string r.Verdict.verdict)
          end)
        specs)
    workloads;
  exit (if !bad then 1 else 0)
