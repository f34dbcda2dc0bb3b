(* Tests for the persistent analysis daemon (lib/serve).

   The central pin: what-if edits answered by incremental re-propagation
   (Tgraph.fanout_closure_into + Propagate.forward_update_into) are
   bit-identical to a full re-sweep — over random DAGs and random edit
   sequences, at 1/2/4 worker domains — and the engine's response stream
   is byte-identical however requests are grouped and however many
   domains run underneath. *)

module Form = Ssta_canonical.Form
module Form_buf = Ssta_canonical.Form_buf
module Tgraph = Ssta_timing.Tgraph
module Par = Ssta_par.Par
module Robust = Ssta_robust.Robust
module Json = Ssta_json.Json
module Serve = Ssta_serve.Serve
module H = Hier_ssta
module Rng = Ssta_gauss.Rng
module Obs = Ssta_obs.Obs

(* ------------------------------------------------------------------ *)
(* Incremental re-propagation == full re-sweep (QCheck)               *)
(* ------------------------------------------------------------------ *)

let sweep_equal n ws reference =
  Array.for_all2
    (fun got want ->
      match (got, want) with
      | None, None -> true
      | Some a, Some b -> Sweep_oracle.same_bits a b
      | _ -> false)
    (Array.init n (fun v -> H.Propagate.ws_form ws v))
    reference

(* One random edit step: pick 1..3 random edges, transform each like the
   serve what-if op does (scale/add/set). *)
let random_edits rng g (forms : Form.t array) =
  let m = Tgraph.n_edges g in
  let k = 1 + Rng.int rng 3 in
  List.init k (fun _ ->
      let e = Rng.int rng m in
      let f = forms.(e) in
      let next =
        match Rng.int rng 3 with
        | 0 -> Form.scale (0.5 +. (2.0 *. Rng.uniform rng)) f
        | 1 -> Form.add_const f ((10.0 *. Rng.uniform rng) -. 5.0)
        | _ -> { f with Form.mean = 50.0 *. Rng.uniform rng }
      in
      (e, next))

let prop_incremental_equals_full n_domains seed =
  Par.with_domains n_domains (fun () ->
      let dims = { Form.n_globals = 2; n_pcs = 3 } in
      let g, forms = Test_kernels.random_dag seed dims in
      let forms = Array.copy forms in
      let n = Tgraph.n_vertices g in
      let fbuf = Sweep_oracle.pack dims forms in
      let ws = H.Propagate.create_workspace () in
      H.Propagate.forward_into ws g ~forms:fbuf ~sources:g.Tgraph.inputs;
      let dirty = Bytes.create n in
      let rng = Rng.create ~seed:(seed lxor 0x5e21e) in
      let steps = 1 + Rng.int rng 6 in
      let ok = ref true in
      for _ = 1 to steps do
        let edits = random_edits rng g forms in
        List.iter
          (fun (e, next) ->
            forms.(e) <- next;
            Form_buf.set fbuf e next)
          edits;
        let seeds =
          Array.of_list (List.map (fun (e, _) -> g.Tgraph.dst.(e)) edits)
        in
        ignore (Tgraph.fanout_closure_into g ~seeds ~into:dirty);
        let n_dirty, _ =
          H.Propagate.forward_update_into ws g ~forms:fbuf
            ~sources:g.Tgraph.inputs ~dirty
        in
        if n_dirty <= 0 then ok := false;
        (* Reference: an independent full sweep over the current forms. *)
        let reference = Sweep_oracle.forward_all g ~forms in
        if not (sweep_equal n ws reference) then ok := false
      done;
      !ok)

let qcheck_incremental n_domains =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "incremental re-timing == full re-sweep (domains=%d)"
         n_domains)
    ~count:60
    QCheck.(int_bound 100_000)
    (prop_incremental_equals_full n_domains)

(* ------------------------------------------------------------------ *)
(* Engine protocol                                                    *)
(* ------------------------------------------------------------------ *)

let req fields = Json.to_string (Json.Obj fields)
let parse_resp s = Json.parse_exn s

let check_ok label resp =
  let j = parse_resp resp in
  match Json.bool_field "ok" j with
  | Ok true -> j
  | _ -> Alcotest.failf "%s: expected ok response, got %s" label resp

let check_err label resp =
  let j = parse_resp resp in
  match Json.bool_field "ok" j with
  | Ok false -> j
  | _ -> Alcotest.failf "%s: expected error response, got %s" label resp

let num label field j =
  match Json.num_field field j with
  | Ok v -> v
  | Error m -> Alcotest.failf "%s: %s" label m

let load_small t =
  ignore
    (check_ok "load" (Serve.handle_line t (req [ ("op", Json.Str "load"); ("design", Json.Str "c432") ])))

let test_load_cache () =
  let t = Serve.create () in
  let j =
    check_ok "load"
      (Serve.handle_line t
         (req [ ("op", Json.Str "load"); ("design", Json.Str "c432") ]))
  in
  Alcotest.(check bool)
    "first load characterizes" false
    (match Json.bool_field "cached" j with Ok b -> b | Error m -> Alcotest.fail m);
  let j2 =
    check_ok "swap"
      (Serve.handle_line t
         (req [ ("op", Json.Str "swap"); ("design", Json.Str "c432") ]))
  in
  Alcotest.(check bool)
    "swap back hits the content-hash cache" true
    (match Json.bool_field "cached" j2 with Ok b -> b | Error m -> Alcotest.fail m);
  Alcotest.(check int) "one model resident" 1 (Serve.cache_size t)

let test_whatif_incremental_vs_full () =
  let t = Serve.create () in
  load_small t;
  let edits =
    Json.Arr
      [
        Json.Obj [ ("edge", Json.Num 1.0); ("scale", Json.Num 1.7) ];
        Json.Obj [ ("edge", Json.Num 4.0); ("add", Json.Num 12.5) ];
      ]
  in
  let whatif mode =
    check_ok ("whatif " ^ mode)
      (Serve.handle_line t
         (req
            [
              ("op", Json.Str "whatif");
              ("edits", edits);
              ("mode", Json.Str mode);
            ]))
  in
  let a = whatif "incremental" and b = whatif "full" in
  List.iter
    (fun f ->
      Alcotest.(check (float 0.0))
        (f ^ " bit-identical across modes")
        (num "full" f b) (num "incr" f a))
    [ "mean"; "sigma"; "clock" ];
  (* The incremental path visited a strict subset of the graph. *)
  Alcotest.(check bool)
    "incremental visits fewer vertices" true
    (num "incr" "dirty_vertices" a < num "full" "dirty_vertices" b)

let test_whatif_rollback_and_commit () =
  let t = Serve.create () in
  load_small t;
  let quantile () =
    Serve.handle_line t (req [ ("op", Json.Str "quantile") ])
  in
  let before = quantile () in
  let edits =
    Json.Arr [ Json.Obj [ ("edge", Json.Num 0.0); ("scale", Json.Num 3.0) ] ]
  in
  ignore
    (check_ok "transient whatif"
       (Serve.handle_line t
          (req [ ("op", Json.Str "whatif"); ("edits", edits) ])));
  Alcotest.(check string)
    "uncommitted edit leaves the session byte-identical" before (quantile ());
  let committed =
    check_ok "committed whatif"
      (Serve.handle_line t
         (req
            [
              ("op", Json.Str "whatif");
              ("edits", edits);
              ("commit", Json.Bool true);
            ]))
  in
  let after_commit = quantile () in
  Alcotest.(check bool)
    "committed edit changes the session" true (after_commit <> before);
  Alcotest.(check (float 0.0))
    "session quantile equals the committed what-if response"
    (num "commit" "mean" committed)
    (num "session" "mean" (check_ok "quantile" after_commit));
  ignore (check_ok "revert" (Serve.handle_line t (req [ ("op", Json.Str "revert") ])));
  Alcotest.(check string) "revert restores pristine" before (quantile ())

let test_errors_do_not_kill_engine () =
  let t = Serve.create () in
  (* No design loaded yet: structured error, not an exception. *)
  let j =
    check_err "quantile w/o load"
      (Serve.handle_line t (req [ ("op", Json.Str "quantile") ]))
  in
  (match Json.find "error" j with
  | Some (Json.Obj _) -> ()
  | _ -> Alcotest.fail "error responses carry a structured context");
  ignore (check_err "malformed json" (Serve.handle_line t "{\"op\": oops"));
  ignore (check_err "unknown op" (Serve.handle_line t (req [ ("op", Json.Str "warp") ])));
  Robust.with_policy Robust.Strict (fun () ->
      ignore
        (check_err "strict malformed json"
           (Serve.handle_line t "{\"op\": oops")));
  (* The engine still works afterwards. *)
  load_small t;
  ignore (check_ok "ping" (Serve.handle_line t (req [ ("op", Json.Str "ping") ])))

let test_whatif_bad_edits () =
  let t = Serve.create () in
  load_small t;
  let whatif edits =
    Serve.handle_line t
      (req [ ("op", Json.Str "whatif"); ("edits", edits) ])
  in
  ignore
    (check_err "edge out of range"
       (whatif
          (Json.Arr
             [ Json.Obj [ ("edge", Json.Num 9999.0); ("scale", Json.Num 2.0) ] ])));
  ignore
    (check_err "conflicting fields"
       (whatif
          (Json.Arr
             [
               Json.Obj
                 [
                   ("edge", Json.Num 0.0);
                   ("scale", Json.Num 2.0);
                   ("add", Json.Num 1.0);
                 ];
             ])));
  ignore (check_err "empty edits" (whatif (Json.Arr [])));
  ignore
    (check_ok "engine alive after bad edits"
       (Serve.handle_line t (req [ ("op", Json.Str "quantile") ])))

(* Revert restores only the committed edges and re-times their fanout
   closure.  After random sequences of commits, transient what-ifs and
   reverts, every edge slot must be bit-equal to the pristine model's and
   the arrival sweep bit-equal to a freshly loaded session's, at every
   vertex. *)
let test_revert_restores_pristine () =
  List.iter
    (fun design ->
      let load t =
        ignore
          (check_ok "load"
             (Serve.handle_line t
                (req [ ("op", Json.Str "load"); ("design", Json.Str design) ])));
        Option.get (Serve.session_state t)
      in
      let _, _, fresh_ws = load (Serve.create ()) in
      let t = Serve.create () in
      let build, fbuf, ws = load t in
      let g = build.Ssta_timing.Build.graph in
      let m = Tgraph.n_edges g in
      let rng = Rng.create ~seed:(Hashtbl.hash design) in
      let whatif ~commit =
        let edits =
          List.init (1 + Rng.int rng 3) (fun _ ->
              Json.Obj
                [
                  ("edge", Json.Num (float_of_int (Rng.int rng m)));
                  ("scale", Json.Num (0.5 +. (2.0 *. Rng.uniform rng)));
                ])
        in
        ignore
          (check_ok "whatif"
             (Serve.handle_line t
                (req
                   [
                     ("op", Json.Str "whatif");
                     ("edits", Json.Arr edits);
                     ("commit", Json.Bool commit);
                   ])))
      in
      let reverts = ref 0 in
      for step = 1 to 60 do
        match Rng.int rng 4 with
        | 0 | 1 -> whatif ~commit:true
        | 2 -> whatif ~commit:false
        | _ ->
            ignore (check_ok "revert" (Serve.handle_line t (req [ ("op", Json.Str "revert") ])));
            incr reverts;
            for e = 0 to m - 1 do
              Sweep_oracle.check_bits
                (Printf.sprintf "%s step %d: edge %d pristine" design step e)
                (Form_buf.get build.Ssta_timing.Build.forms e)
                (Form_buf.get fbuf e)
            done;
            for v = 0 to Tgraph.n_vertices g - 1 do
              match (H.Propagate.ws_form fresh_ws v, H.Propagate.ws_form ws v) with
              | None, None -> ()
              | Some want, Some got ->
                  Sweep_oracle.check_bits
                    (Printf.sprintf "%s step %d: arrival %d" design step v)
                    want got
              | _ ->
                  Alcotest.failf "%s step %d: vertex %d reachability differs"
                    design step v
            done
      done;
      Alcotest.(check bool) (design ^ ": the sequence reverted") true (!reverts > 0))
    [ "c432"; "c1908" ]

(* ------------------------------------------------------------------ *)
(* Grouped (pipelined) handling == sequential handling                 *)
(* ------------------------------------------------------------------ *)

let scenario_quantile ?(id = 0) corner scale =
  req
    [
      ("id", Json.Num (float_of_int id));
      ("op", Json.Str "quantile");
      ( "scenario",
        Json.Obj
          [ ("corner", Json.Str corner); ("delay_scale", Json.Num scale) ] );
    ]

(* The CI serve corpus (every op, malformed lines included), replayed
   in-process against the response stream committed before the path
   index and the per-base batch scratch: both must be invisible in the
   bytes.  The corpus names its frontend files relative to the
   repository root. *)
let test_corpus_golden () =
  let lines path = In_channel.with_open_text path In_channel.input_lines in
  let want = lines "golden/serve_corpus_c1908.responses.jsonl" in
  let cwd = Sys.getcwd () in
  Sys.chdir "..";
  let got =
    Fun.protect ~finally:(fun () -> Sys.chdir cwd) @@ fun () ->
    let t = Serve.create () in
    List.map (Serve.handle_line t) (lines "bench/serve_corpus_c1908.jsonl")
  in
  Alcotest.(check int) "responses" (List.length want) (List.length got);
  List.iteri
    (fun i (w, g) -> Alcotest.(check string) (Printf.sprintf "line %d" (i + 1)) w g)
    (List.combine want got)

let grouping_corpus =
  [
    req [ ("id", Json.Num 1.0); ("op", Json.Str "load"); ("design", Json.Str "c432") ];
    scenario_quantile ~id:2 "slow" 1.0;
    scenario_quantile ~id:3 "fast" 1.0;
    (* id 4 repeats id 2's scenario: answered from the scenario memo *)
    scenario_quantile ~id:4 "slow" 1.0;
    scenario_quantile ~id:5 "nominal" 1.05;
    req [ ("id", Json.Num 6.0); ("op", Json.Str "quantile") ];
    scenario_quantile ~id:7 "global_slow" 1.0;
    req [ ("id", Json.Num 8.0); ("op", Json.Str "stats") ];
  ]

(* Requests that carry a deadline bypass the scenario memo: each runs its
   own sweep under its own (here already expired) deadline and times out,
   grouped or not. *)
let deadline_corpus =
  List.map
    (fun id ->
      req
        [
          ("id", Json.Num (float_of_int id));
          ("op", Json.Str "quantile");
          ("scenario", Json.Obj [ ("corner", Json.Str "slow") ]);
          ("deadline_ms", Json.Num 0.0);
        ])
    [ 9; 10 ]
  @ [ req [ ("id", Json.Num 11.0); ("op", Json.Str "stats") ] ]

(* Under Strict an undecodable scenario inside a group fails alone, and is
   counted as a request like any other. *)
let strict_corpus =
  [
    req [ ("id", Json.Num 1.0); ("op", Json.Str "load"); ("design", Json.Str "c432") ];
    scenario_quantile ~id:2 "slow" 1.0;
    req
      [
        ("id", Json.Num 3.0);
        ("op", Json.Str "quantile");
        ("scenario", Json.Obj [ ("corner", Json.Str "typical") ]);
      ];
    scenario_quantile ~id:4 "slow" 1.0;
    req [ ("id", Json.Num 5.0); ("op", Json.Str "stats") ];
  ]

let is_stats resp =
  match Json.parse resp with
  | Ok j -> Json.str_field "op" j = Ok "stats"
  | Error _ -> false

(* Counters are process-global: each run starts from zero. *)
let run_corpus ?(policy = Robust.Repair) corpus grouped =
  Robust.with_policy policy (fun () ->
      Obs.reset ();
      let t = Serve.create () in
      if grouped then Serve.handle_lines t corpus
      else List.map (Serve.handle_line t) corpus)

let with_obs f =
  let was = Obs.enabled () in
  Obs.enable ();
  Fun.protect ~finally:(fun () -> Obs.set_enabled was) f

let test_grouping_equals_sequential () =
  with_obs (fun () ->
      List.iter
        (fun (label, policy, corpus) ->
          Alcotest.(check (list string))
            (label ^ ": pipelined grouping is byte-identical to sequential handling")
            (run_corpus ~policy corpus false)
            (run_corpus ~policy corpus true))
        [
          ("repair", Robust.Repair, grouping_corpus @ deadline_corpus);
          ("strict", Robust.Strict, strict_corpus);
        ])

(* The scenario-memo corpus: repeated scenario quantiles around a commit,
   a transient what-if and a revert, a repairable scenario sent twice, an
   expired-deadline repeat of a memoized scenario, more distinct scenarios
   than the memo holds, a load of another design and a swap back.  Its
   response stream was recorded before the memo existed; sequential,
   grouped and at 1 vs 4 domains it must match byte for byte. *)
let scenario_corpus () =
  In_channel.with_open_text "serve_scenario_corpus_c1908.jsonl" In_channel.input_lines

let run_scenario_corpus ~grouped =
  let t = Serve.create () in
  let corpus = scenario_corpus () in
  if grouped then Serve.handle_lines t corpus
  else List.map (Serve.handle_line t) corpus

let test_scenario_corpus_golden () =
  let want =
    In_channel.with_open_text "golden/serve_scenario_corpus_c1908.responses.jsonl"
      In_channel.input_lines
  in
  List.iter
    (fun (label, domains, grouped) ->
      let got = Par.with_domains domains (fun () -> run_scenario_corpus ~grouped) in
      Alcotest.(check int) (label ^ ": responses") (List.length want) (List.length got);
      List.iteri
        (fun i (w, g) ->
          Alcotest.(check string) (Printf.sprintf "%s: line %d" label (i + 1)) w g)
        (List.combine want got))
    [
      ("sequential d1", 1, false);
      ("sequential d4", 4, false);
      ("grouped d1", 1, true);
      ("grouped d4", 4, true);
    ];
  (* What the memo did on the sequential stream: 7 repeats of the two
     early scenarios are hits, across the commit, the what-if and the
     revert; every other scenario request sweeps - the repairable one both
     times, the 66 distinct ones (the memo starts over at the 63rd), the
     repeat of the first of them and of the early scenario after the cap
     run, and the three after the load and the swap back, each of which
     starts a new memo. *)
  with_obs (fun () ->
      Obs.reset ();
      ignore (Par.with_domains 1 (fun () -> run_scenario_corpus ~grouped:false));
      Alcotest.(check int) "memo hits" 7 (Obs.find_counter "serve.scenario_memo_hits");
      Alcotest.(check int) "scenario sweeps" 75 (Obs.find_counter "batch.scenarios"));
  (* Grouped, every request is still answered alone: the memo sees the
     same hits and misses, and the sweeps are the same ones. *)
  with_obs (fun () ->
      Obs.reset ();
      ignore (Par.with_domains 1 (fun () -> run_scenario_corpus ~grouped:true));
      Alcotest.(check int) "grouped memo hits" 7
        (Obs.find_counter "serve.scenario_memo_hits");
      Alcotest.(check int) "grouped scenario sweeps" 75
        (Obs.find_counter "batch.scenarios"))

(* Allocation pin for the request path on c1908, after warm-up: a
   memo-hit scenario quantile and a plain quantile each stay under a fixed
   minor-word budget.  Measured at 970 and 824 words per request (parse,
   response and the boxed delay form); the budgets leave about 50 %
   headroom.  A scenario request that bypasses the memo (a far deadline)
   and re-sweeps allocates about 8 500 words, so a hit that silently
   re-swept would fail. *)
let test_quantile_allocation () =
  Par.with_domains 1 @@ fun () ->
  let t = Serve.create () in
  ignore
    (check_ok "load"
       (Serve.handle_line t (req [ ("op", Json.Str "load"); ("design", Json.Str "c1908") ])));
  let scenario = Json.Obj [ ("corner", Json.Str "slow"); ("delay_scale", Json.Num 1.02) ] in
  let line fields = req (("op", Json.Str "quantile") :: fields) in
  let per fields =
    let l = line fields in
    Test_kernels.minor_words_per (fun () -> Serve.handle_line t l)
  in
  let hit = per [ ("scenario", scenario) ] in
  let plain = per [ ("yield", Json.Num 0.99) ] in
  let sweep = per [ ("scenario", scenario); ("deadline_ms", Json.Num 1e9) ] in
  let hit_budget = 1500.0 and plain_budget = 1250.0 in
  Alcotest.(check bool)
    (Printf.sprintf "memo hit: %.0f minor words <= %.0f" hit hit_budget)
    true (hit <= hit_budget);
  Alcotest.(check bool)
    (Printf.sprintf "plain quantile: %.0f minor words <= %.0f" plain plain_budget)
    true (plain <= plain_budget);
  Alcotest.(check bool)
    (Printf.sprintf "a re-sweep (%.0f minor words) exceeds the hit budget" sweep)
    true (sweep > hit_budget)

let test_responses_identical_across_domains () =
  let at n = Par.with_domains n (fun () -> run_corpus grouping_corpus true) in
  Alcotest.(check (list string))
    "response stream byte-identical at 1 vs 4 domains" (at 1) (at 4)

(* ------------------------------------------------------------------ *)
(* Batch op under the robust policies                                  *)
(* ------------------------------------------------------------------ *)

let test_batch_op_policies () =
  let bad_batch t =
    Serve.handle_line t
      (req
         [
           ("op", Json.Str "batch");
           ( "scenarios",
             Json.Arr
               [
                 Json.Obj [ ("corner", Json.Str "typical") ];
                 Json.Obj [ ("sigma_scale", Json.Num (-2.0)) ];
               ] );
         ])
  in
  Robust.with_policy Robust.Repair (fun () ->
      let t = Serve.create () in
      load_small t;
      let j = check_ok "repaired batch" (bad_batch t) in
      Alcotest.(check (float 0.0))
        "both defective scenarios repaired and evaluated" 2.0
        (num "batch" "scenarios" j));
  Robust.with_policy Robust.Strict (fun () ->
      let t = Serve.create () in
      load_small t;
      ignore (check_err "strict batch rejects defective scenario" (bad_batch t)))

(* ------------------------------------------------------------------ *)
(* Durability: disk model cache, ECO write-ahead log, crash recovery   *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d = Printf.sprintf "_durable_%d" !n in
    rm_rf d;
    Unix.mkdir d 0o755;
    d

let flip_byte path off =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let b = Bytes.create 1 in
      ignore (Unix.lseek fd off Unix.SEEK_SET);
      ignore (Unix.read fd b 0 1);
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x20));
      ignore (Unix.lseek fd off Unix.SEEK_SET);
      ignore (Unix.write fd b 0 1))

let chop_bytes path n =
  let len = (Unix.stat path).Unix.st_size in
  Unix.truncate path (max 0 (len - n))

let drop_log dir =
  List.iter
    (fun f ->
      let p = Filename.concat dir f in
      if Sys.file_exists p then Sys.remove p)
    [ "wal.jsonl"; "checkpoint" ]

let model_files dir =
  Sys.readdir (Filename.concat dir "models")
  |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".model")

let load_c432 = req [ ("op", Json.Str "load"); ("design", Json.Str "c432") ]

let cached_of label resp =
  let j = check_ok label resp in
  match Json.bool_field "cached" j with
  | Ok b -> b
  | Error m -> Alcotest.failf "%s: %s" label m

(* A model characterized by one engine is picked up from disk by the
   next engine on the same cache dir (the WAL is dropped in between so
   the hit comes from the spill file, not from recovery replay). *)
let test_disk_cache_warm_restart () =
  let dir = fresh_dir () in
  let t1 = Serve.create ~cache_dir:dir () in
  Alcotest.(check bool)
    "first load characterizes" false
    (cached_of "load 1" (Serve.handle_line t1 load_c432));
  Alcotest.(check int) "one spill file" 1 (List.length (model_files dir));
  drop_log dir;
  let t2 = Serve.create ~cache_dir:dir () in
  Alcotest.(check int) "nothing resident before load" 0 (Serve.cache_size t2);
  Alcotest.(check bool)
    "warm restart loads from disk" true
    (cached_of "load 2" (Serve.handle_line t2 load_c432));
  Alcotest.(check int) "model resident after disk hit" 1 (Serve.cache_size t2)

(* Corrupt spill files: under Repair they are quarantined and the model
   recomputed (and re-spilled); under Strict the load degrades to a
   structured error response and the engine survives. *)
let test_cache_corruption () =
  let dir = fresh_dir () in
  let t1 = Serve.create ~cache_dir:dir () in
  ignore (check_ok "seed load" (Serve.handle_line t1 load_c432));
  let model = Filename.concat (Filename.concat dir "models")
      (List.hd (model_files dir)) in
  let corrupt_count () = List.assoc "robust.cache_corrupt" (Robust.counters ()) in
  (* bit flip in the middle of the payload *)
  flip_byte model ((Unix.stat model).Unix.st_size / 2);
  drop_log dir;
  Robust.with_policy Robust.Repair (fun () ->
      let before = corrupt_count () in
      let t2 = Serve.create ~cache_dir:dir () in
      Alcotest.(check bool)
        "bit-flipped entry recomputed" false
        (cached_of "load after flip" (Serve.handle_line t2 load_c432));
      Alcotest.(check bool)
        "corruption counted" true
        (corrupt_count () > before);
      Alcotest.(check bool)
        "corrupt file quarantined" true
        (Sys.file_exists (model ^ ".corrupt")));
  (* t2 re-spilled the model; now truncate it *)
  chop_bytes model 64;
  drop_log dir;
  Robust.with_policy Robust.Repair (fun () ->
      let t3 = Serve.create ~cache_dir:dir () in
      Alcotest.(check bool)
        "truncated entry recomputed" false
        (cached_of "load after chop" (Serve.handle_line t3 load_c432)));
  chop_bytes model 64;
  drop_log dir;
  Robust.with_policy Robust.Strict (fun () ->
      let t4 = Serve.create ~cache_dir:dir () in
      ignore (check_err "strict corrupt cache" (Serve.handle_line t4 load_c432));
      ignore
        (check_ok "engine survives"
           (Serve.handle_line t4 (req [ ("op", Json.Str "ping") ]))))

(* The ECO corpus shared by the recovery tests: committed edits, a
   transient edit, a revert, reads in between.  Index 5 is the standard
   crash split; the request at index 3 writes the last WAL record of the
   prefix (the torn-tail test relies on both). *)
let eco_corpus =
  [
    req [ ("id", Json.Num 1.0); ("op", Json.Str "load"); ("design", Json.Str "c432") ];
    req
      [
        ("id", Json.Num 2.0);
        ("op", Json.Str "whatif");
        ( "edits",
          Json.Arr [ Json.Obj [ ("edge", Json.Num 10.0); ("scale", Json.Num 1.3) ] ] );
        ("commit", Json.Bool true);
      ];
    req [ ("id", Json.Num 3.0); ("op", Json.Str "quantile"); ("yield", Json.Num 0.99) ];
    req
      [
        ("id", Json.Num 4.0);
        ("op", Json.Str "whatif");
        ( "edits",
          Json.Arr
            [
              Json.Obj [ ("edge", Json.Num 20.0); ("add", Json.Num 5.0) ];
              Json.Obj [ ("edge", Json.Num 30.0); ("set", Json.Num 77.0) ];
            ] );
        ("commit", Json.Bool true);
      ];
    req [ ("id", Json.Num 5.0); ("op", Json.Str "paths"); ("k", Json.Num 2.0) ];
    req [ ("id", Json.Num 6.0); ("op", Json.Str "quantile"); ("yield", Json.Num 0.9) ];
    req
      [
        ("id", Json.Num 7.0);
        ("op", Json.Str "whatif");
        ( "edits",
          Json.Arr [ Json.Obj [ ("edge", Json.Num 40.0); ("scale", Json.Num 0.8) ] ] );
        ("commit", Json.Bool true);
      ];
    req [ ("id", Json.Num 8.0); ("op", Json.Str "revert") ];
    req [ ("id", Json.Num 9.0); ("op", Json.Str "quantile") ];
    req
      [
        ("id", Json.Num 10.0);
        ("op", Json.Str "whatif");
        ( "edits",
          Json.Arr [ Json.Obj [ ("edge", Json.Num 10.0); ("scale", Json.Num 1.5) ] ] );
      ];
    req [ ("id", Json.Num 11.0); ("op", Json.Str "quantile") ];
  ]

let reference_stream () =
  let t = Serve.create () in
  List.map (Serve.handle_line t) eco_corpus

let rec drop n l =
  if n <= 0 then l else match l with [] -> [] | _ :: tl -> drop (n - 1) tl

let rec take n = function
  | x :: tl when n > 0 -> x :: take (n - 1) tl
  | _ -> []

(* Process a prefix on one durable engine, abandon it (a crash keeps the
   WAL: every record is flushed before the response is returned), build
   a second engine on the same dir, and check the remaining responses
   are byte-identical to an engine that never died. *)
let recovery_tail_identical ~split =
  let reference = reference_stream () in
  let dir = fresh_dir () in
  let t1 = Serve.create ~cache_dir:dir ~checkpoint_every:3 () in
  ignore (List.map (Serve.handle_line t1) (take split eco_corpus));
  let t2 = Serve.create ~cache_dir:dir ~checkpoint_every:3 () in
  Alcotest.(check (list string))
    (Printf.sprintf "recovered tail identical (split %d)" split)
    (drop split reference)
    (List.map (Serve.handle_line t2) (drop split eco_corpus))

let test_recovery_bit_identity () =
  recovery_tail_identical ~split:5;
  (* split 4: the last prefix record is the id-4 commit; exercises a
     recovery whose WAL ends exactly on a committed edit *)
  recovery_tail_identical ~split:4

let test_recovery_bit_identity_domains () =
  List.iter
    (fun d -> Par.with_domains d (fun () -> recovery_tail_identical ~split:5))
    [ 1; 4 ]

(* A WAL record torn mid-append (simulated by chopping bytes off the
   file) is truncated away under Repair - the client re-sends the
   unacknowledged request and the stream converges - and is a structured
   startup error under Strict. *)
let test_wal_torn_tail () =
  let reference = reference_stream () in
  let truncated_count () =
    List.assoc "robust.wal_truncated" (Robust.counters ())
  in
  let setup () =
    let dir = fresh_dir () in
    let t1 = Serve.create ~cache_dir:dir () in
    ignore (List.map (Serve.handle_line t1) (take 4 eco_corpus));
    (* last WAL record = the id-4 commit (request index 3); tear it *)
    chop_bytes (Filename.concat dir "wal.jsonl") 10;
    dir
  in
  Robust.with_policy Robust.Repair (fun () ->
      let dir = setup () in
      let before = truncated_count () in
      let t2 = Serve.create ~cache_dir:dir () in
      Alcotest.(check bool)
        "torn record counted" true
        (truncated_count () > before);
      Alcotest.(check (list string))
        "re-sent torn request + tail identical" (drop 3 reference)
        (List.map (Serve.handle_line t2) (drop 3 eco_corpus)));
  Robust.with_policy Robust.Strict (fun () ->
      let dir = setup () in
      match Serve.create ~cache_dir:dir () with
      | _ -> Alcotest.fail "strict engine accepted a torn WAL"
      | exception Robust.Error c ->
          Alcotest.(check string)
            "structured torn-WAL error" "serve.wal" c.Robust.subsystem)

(* A bit flip in the first WAL record fails its checksum: under Repair
   the whole log from that point is dropped and the engine starts
   clean (still serving models from the disk cache). *)
let test_wal_bit_flip () =
  let dir = fresh_dir () in
  let t1 = Serve.create ~cache_dir:dir () in
  ignore (List.map (Serve.handle_line t1) (take 4 eco_corpus));
  flip_byte (Filename.concat dir "wal.jsonl") 40;
  Robust.with_policy Robust.Repair (fun () ->
      let before = List.assoc "robust.wal_truncated" (Robust.counters ()) in
      let t2 = Serve.create ~cache_dir:dir () in
      Alcotest.(check bool)
        "flipped record counted" true
        (List.assoc "robust.wal_truncated" (Robust.counters ()) > before);
      Alcotest.(check int) "recovered state empty" 0 (Serve.cache_size t2);
      Alcotest.(check bool)
        "models still served from disk" true
        (cached_of "load after flip" (Serve.handle_line t2 load_c432)))

(* The durable files as earlier builds frame them, written by hand:
   "<md5 of payload> <payload>" lines, the checkpoint's session object
   ("bundled" / "files" plus its committed edits and the dedup pair) and
   the four WAL record kinds ("load", "load_files", "whatif", "revert").
   A writer-reader round trip cannot catch a change that moves both
   sides; these literals can.  Each recovered engine must answer like a
   live engine that ran the equivalent requests, and must answer the
   re-sent last logged request with its logged response. *)
let framed payloads =
  String.concat ""
    (List.map
       (fun p -> Digest.to_hex (Digest.string p) ^ " " ^ p ^ "\n")
       payloads)

let form_literal (f : Form.t) =
  let g = Printf.sprintf "%.17g" in
  let arr a = String.concat "," (Array.to_list (Array.map g a)) in
  Printf.sprintf {|{"mean":%s,"rand":%s,"g":[%s],"p":[%s]}|} (g f.Form.mean)
    (g f.Form.rand) (arr f.Form.globals) (arr f.Form.pcs)

let c17 ext = "../examples/frontend/c17." ^ ext

let c17_fields =
  [
    ("verilog", Json.Str (c17 "v"));
    ("liberty", Json.Str (c17 "lib"));
    ("sdc", Json.Str (c17 "sdc"));
  ]

let c17_literal =
  Printf.sprintf {|"verilog":"%s","liberty":"%s","sdc":"%s"|} (c17 "v")
    (c17 "lib") (c17 "sdc")

(* The committed form of [set] on a pristine edge. *)
let set_form (build : Ssta_timing.Build.t) edge mean =
  form_literal { (Form_buf.get build.Ssta_timing.Build.forms edge) with Form.mean }

let set_edit id edge v =
  req
    [
      ("id", Json.Num (float_of_int id));
      ("op", Json.Str "whatif");
      ( "edits",
        Json.Arr [ Json.Obj [ ("edge", Json.Num (float_of_int edge)); ("set", Json.Num v) ] ] );
      ("commit", Json.Bool true);
    ]

let test_durable_formats_pinned () =
  let module Build = Ssta_timing.Build in
  let module FDesign = Ssta_frontend.Design in
  let c432 = Build.characterize (Ssta_circuit.Iscas.build "c432") in
  let c17_build =
    Build.characterize
      (FDesign.lower
         (FDesign.load_files ~verilog:(c17 "v") ~liberty:(c17 "lib")
            ~sdc:(c17 "sdc") ()))
        .FDesign.netlist
  in
  let load_c17 = req (("op", Json.Str "load_files") :: c17_fields) in
  let read id op = req [ ("id", Json.Num (float_of_int id)); ("op", Json.Str op) ] in
  let field key resp =
    match Json.find key (parse_resp resp) with
    | Some v -> Json.to_string v
    | None -> Alcotest.failf "no %s in %s" key resp
  in
  (* [live] builds the state through ordinary requests; [queries] then
     go to both engines.  The logged request [last] is re-sent first. *)
  let recover label ~checkpoint ~wal ~last ~live ~queries =
    let dir = fresh_dir () in
    let write name doc =
      Out_channel.with_open_bin (Filename.concat dir name) (fun oc ->
          Out_channel.output_string oc doc)
    in
    Option.iter (fun p -> write "checkpoint" (framed [ p ])) checkpoint;
    if wal <> [] then write "wal.jsonl" (framed wal);
    let t = Serve.create ~cache_dir:dir () in
    Alcotest.(check string)
      (label ^ ": re-sent logged request answered from the log")
      {|{"id":0,"logged":true}|} (Serve.handle_line t last);
    let reference = Serve.create () in
    List.iter (fun l -> ignore (check_ok label (Serve.handle_line reference l))) live;
    let stats = read 99 "stats" in
    List.iter2
      (fun want got ->
        if is_stats want then
          List.iter
            (fun key ->
              Alcotest.(check string)
                (Printf.sprintf "%s: stats %s" label key)
                (field key want) (field key got))
            [ "design"; "edited"; "n_edges" ]
        else Alcotest.(check string) label want got)
      (List.map (Serve.handle_line reference) (queries @ [ stats ]))
      (List.map (Serve.handle_line t) (queries @ [ stats ]))
  in
  let digest line = Digest.to_hex (Digest.string line) in
  let logged line = Printf.sprintf {|"req":"%s","resp":"{\"id\":0,\"logged\":true}"|} (digest line) in
  (* 1. checkpoint only: bundled session with a committed edit *)
  let last = set_edit 1 10 500.0 in
  recover "bundled checkpoint"
    ~checkpoint:
      (Some
         (Printf.sprintf
            {|{"seq":1,"session":{"kind":"bundled","design":"c432","edits":[{"edge":10,"form":%s}]},"last_req":"%s","last_resp":"{\"id\":0,\"logged\":true}"}|}
            (set_form c432 10 500.0) (digest last)))
    ~wal:[] ~last
    ~live:[ load_c432; set_edit 1 10 500.0 ]
    ~queries:[ read 2 "quantile"; read 3 "report" ];
  (* 2. files checkpoint, then a committed whatif and a revert *)
  let revert = read 5 "revert" in
  recover "files checkpoint + whatif + revert"
    ~checkpoint:
      (Some
         (Printf.sprintf
            {|{"seq":1,"session":{"kind":"files",%s,"edits":[{"edge":2,"form":%s}]}}|}
            c17_literal (set_form c17_build 2 40.0)))
    ~wal:
      [
        Printf.sprintf {|{"seq":2,"kind":"whatif","edits":[{"edge":3,"form":%s}],%s}|}
          (set_form c17_build 3 30.0) (logged (set_edit 4 3 30.0));
        Printf.sprintf {|{"seq":3,"kind":"revert",%s}|} (logged revert);
      ]
    ~last:revert ~live:[ load_c17 ]
    ~queries:[ read 6 "quantile"; read 7 "report" ];
  (* 3. WAL only: load, whatif, load_files, whatif *)
  let last = set_edit 4 2 40.0 in
  recover "load + load_files WAL"
    ~checkpoint:None
    ~wal:
      [
        Printf.sprintf {|{"seq":1,"kind":"load","design":"c432",%s}|} (logged load_c432);
        Printf.sprintf {|{"seq":2,"kind":"whatif","edits":[{"edge":10,"form":%s}],%s}|}
          (set_form c432 10 500.0) (logged (set_edit 2 10 500.0));
        Printf.sprintf {|{"seq":3,"kind":"load_files",%s,%s}|} c17_literal (logged load_c17);
        Printf.sprintf {|{"seq":4,"kind":"whatif","edits":[{"edge":2,"form":%s}],%s}|}
          (set_form c17_build 2 40.0) (logged last);
      ]
    ~last ~live:[ load_c17; set_edit 4 2 40.0 ]
    ~queries:[ read 5 "quantile"; read 6 "report"; read 7 "paths" ]

(* Deadlines: an expired per-request deadline turns into a structured
   timeout response (never a wedged or dead engine), and the
   cancellation points inside Batch.run observe an armed deadline. *)
let test_deadline_timeout_response () =
  let t = Serve.create () in
  load_small t;
  let timed fields = req (fields @ [ ("deadline_ms", Json.Num 0.0) ]) in
  let check_timeout label resp =
    let j = check_err label resp in
    match Json.bool_field "timeout" j with
    | Ok true -> ()
    | _ -> Alcotest.failf "%s: expected timeout:true, got %s" label resp
  in
  check_timeout "quantile deadline"
    (Serve.handle_line t
       (timed
          [
            ("op", Json.Str "quantile");
            ("scenario", Json.Obj [ ("corner", Json.Str "slow") ]);
          ]));
  check_timeout "batch deadline"
    (Serve.handle_line t
       (timed
          [
            ("op", Json.Str "batch");
            ("scenarios", Json.Arr [ Json.Obj [ ("corner", Json.Str "slow") ] ]);
          ]));
  (* the deadline is per-request: the engine is immediately usable *)
  ignore
    (check_ok "engine alive after timeouts"
       (Serve.handle_line t (req [ ("op", Json.Str "quantile") ])))

let test_deadline_cancels_batch_run () =
  let module Batch = Ssta_batch.Batch in
  let module Deadline = Ssta_robust.Deadline in
  let base =
    Batch.prepare (Ssta_timing.Build.characterize (Ssta_circuit.Iscas.build "c432"))
  in
  let scenarios = Batch.default_scenarios 3 in
  Deadline.arm_at 0.0;
  (match Par.with_domains 2 (fun () -> Batch.run base scenarios) with
  | _ ->
      Deadline.disarm ();
      Alcotest.fail "Batch.run ignored an expired deadline"
  | exception Robust.Error c ->
      Deadline.disarm ();
      Alcotest.(check string) "deadline subsystem" "deadline" c.Robust.subsystem);
  (* disarmed: same call completes *)
  ignore (Par.with_domains 2 (fun () -> Batch.run base scenarios))

(* Fuzzed durable state: WAL and disk-cache files mangled by the shared
   mutation primitives (byte truncation, token mutation, line shuffle).
   The contract mirrors the frontend fuzz: under Repair the engine
   always starts and serves (mangled records are truncated/quarantined
   and recomputed); under Strict it either works or raises/returns a
   structured Robust error - no other exception may escape. *)
let test_wal_cache_fuzz () =
  let module Fuzz = Ssta_robust_inject.Fuzz in
  let module Rng = Ssta_gauss.Rng in
  let read_all path = In_channel.with_open_bin path In_channel.input_all in
  let write_all path doc =
    Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc doc)
  in
  (* seed state: one load + two committed edits *)
  let dir0 = fresh_dir () in
  let t0 = Serve.create ~cache_dir:dir0 () in
  ignore (List.map (Serve.handle_line t0) (take 4 eco_corpus));
  let model_name = List.hd (model_files dir0) in
  let wal_doc = read_all (Filename.concat dir0 "wal.jsonl") in
  let model_doc =
    read_all (Filename.concat (Filename.concat dir0 "models") model_name)
  in
  let classes = [ Fuzz.Byte_truncate; Fuzz.Token_mutate; Fuzz.Line_shuffle ] in
  let structured f =
    match f () with
    | () -> ()
    | exception Robust.Error _ -> ()
    | exception e ->
        Alcotest.failf "non-structured exception escaped: %s"
          (Printexc.to_string e)
  in
  let fuzz_one ~case ~klass ~policy ~target =
    let rng = Rng.create ~seed:(0xD15C lxor (case * 7) lxor Hashtbl.hash target) in
    let dir = fresh_dir () in
    Unix.mkdir (Filename.concat dir "models") 0o755;
    (match target with
    | `Wal ->
        (* intact model + mangled WAL *)
        write_all (Filename.concat (Filename.concat dir "models") model_name)
          model_doc;
        write_all (Filename.concat dir "wal.jsonl")
          (Fuzz.mutate klass rng wal_doc)
    | `Model ->
        (* mangled model, no WAL: the load must detect it *)
        write_all (Filename.concat (Filename.concat dir "models") model_name)
          (Fuzz.mutate klass rng model_doc));
    Robust.with_policy policy (fun () ->
        structured (fun () ->
            let t = Serve.create ~cache_dir:dir () in
            let resp = Serve.handle_line t load_c432 in
            match Json.bool_field "ok" (parse_resp resp) with
            | Ok true -> ()
            | Ok false when policy = Robust.Strict ->
                (* must still be a structured error, engine alive *)
                ignore (check_err "strict fuzz error" resp);
                ignore
                  (check_ok "engine alive"
                     (Serve.handle_line t (req [ ("op", Json.Str "ping") ])))
            | _ -> Alcotest.failf "repair-mode load failed on fuzzed state: %s" resp))
  in
  List.iter
    (fun target ->
      List.iter
        (fun klass ->
          for case = 0 to 3 do
            fuzz_one ~case ~klass ~policy:Robust.Repair ~target;
            fuzz_one ~case ~klass ~policy:Robust.Strict ~target
          done)
        classes)
    [ `Wal; `Model ]

(* Backpressure: requests beyond the queue bound are shed in order with
   a structured overloaded response and a positive retry hint. *)
let test_queue_overflow_sheds () =
  let t = Serve.create ~max_queue:2 () in
  let ping i = req [ ("id", Json.Num (float_of_int i)); ("op", Json.Str "ping") ] in
  let responses = Serve.handle_lines t (List.init 5 ping) in
  Alcotest.(check int) "every request answered" 5 (List.length responses);
  let overloaded r =
    match Json.bool_field "overloaded" (parse_resp r) with Ok b -> b | _ -> false
  in
  Alcotest.(check (list bool))
    "first max_queue served, tail shed in order"
    [ false; false; true; true; true ]
    (List.map overloaded responses);
  List.iteri
    (fun i r ->
      Alcotest.(check (float 0.0))
        "ids echoed in request order" (float_of_int i)
        (num "id" "id" (parse_resp r)))
    responses;
  let shed = List.filteri (fun i _ -> i >= 2) responses in
  List.iter
    (fun r ->
      Alcotest.(check bool)
        "positive retry hint" true
        (num "retry hint" "retry_after_ms" (parse_resp r) >= 1.0))
    shed;
  (* raising the bound un-sheds *)
  Serve.set_max_queue t 8;
  Alcotest.(check int) "no shedding under the bound" 0
    (List.length (List.filter overloaded (Serve.handle_lines t (List.init 5 ping))))

let suites =
  [
    ( "serve.incremental",
      [
        QCheck_alcotest.to_alcotest (qcheck_incremental 1);
        QCheck_alcotest.to_alcotest (qcheck_incremental 2);
        QCheck_alcotest.to_alcotest (qcheck_incremental 4);
      ] );
    ( "serve.engine",
      [
        Alcotest.test_case "content-hash model cache" `Quick test_load_cache;
        Alcotest.test_case "whatif incremental == full" `Quick
          test_whatif_incremental_vs_full;
        Alcotest.test_case "whatif rollback/commit/revert" `Quick
          test_whatif_rollback_and_commit;
        Alcotest.test_case "revert restores pristine bits" `Quick
          test_revert_restores_pristine;
        Alcotest.test_case "errors degrade, daemon survives" `Quick
          test_errors_do_not_kill_engine;
        Alcotest.test_case "bad what-if edits" `Quick test_whatif_bad_edits;
        Alcotest.test_case "c1908 corpus = golden stream" `Quick
          test_corpus_golden;
        Alcotest.test_case "grouping == sequential" `Quick
          test_grouping_equals_sequential;
        Alcotest.test_case "byte-identical across domains" `Quick
          test_responses_identical_across_domains;
        Alcotest.test_case "scenario memo corpus = golden stream" `Quick
          test_scenario_corpus_golden;
        Alcotest.test_case "quantile allocation pinned" `Quick
          test_quantile_allocation;
        Alcotest.test_case "batch op strict/repair" `Quick
          test_batch_op_policies;
      ] );
    ( "serve.durability",
      [
        Alcotest.test_case "disk cache warm restart" `Quick
          test_disk_cache_warm_restart;
        Alcotest.test_case "cache corruption quarantined" `Quick
          test_cache_corruption;
        Alcotest.test_case "crash recovery bit-identical" `Quick
          test_recovery_bit_identity;
        Alcotest.test_case "recovery bit-identical across domains" `Quick
          test_recovery_bit_identity_domains;
        Alcotest.test_case "torn WAL repair/strict" `Quick test_wal_torn_tail;
        Alcotest.test_case "bit-flipped WAL dropped" `Quick test_wal_bit_flip;
        Alcotest.test_case "durable formats pinned" `Quick
          test_durable_formats_pinned;
        Alcotest.test_case "fuzzed WAL/cache files" `Quick test_wal_cache_fuzz;
        Alcotest.test_case "deadline timeout response" `Quick
          test_deadline_timeout_response;
        Alcotest.test_case "deadline cancels Batch.run" `Quick
          test_deadline_cancels_batch_run;
        Alcotest.test_case "queue overflow sheds" `Quick
          test_queue_overflow_sheds;
      ] );
  ]
