(* Tests of the ledger's own machinery: seeded inputs, the tail-percentile
   rule, per-kind op statistics, self-time arithmetic, the open-loop
   scheduler and the compare verdicts. *)

open Ledger
module Json = Ssta_json.Json

let fl = Alcotest.float 1e-9

(* ---- seeded inputs ---------------------------------------------------- *)

let test_design_text_seeded () =
  let a = Gen.grid_text ~seed:42 ~gates:4096 and b = Gen.grid_text ~seed:42 ~gates:4096 in
  let c = Gen.grid_text ~seed:7 ~gates:4096 in
  Alcotest.(check bool) "same seed, same text" true (a = b);
  Alcotest.(check bool) "other seed, other netlist" false (a.Gen.verilog = c.Gen.verilog)

let test_requests_seeded () =
  let reqs seed = Gen.requests ~seed ~stream:1 ~n_edges:7094 ~first_id:0 200 in
  let arr seed = Gen.arrivals ~seed ~stream:0 ~rate:450.0 ~duration:1.0 in
  Alcotest.(check bool) "same seed, same requests" true (reqs 42 = reqs 42);
  Alcotest.(check bool) "same seed, same arrivals" true (arr 42 = arr 42);
  Alcotest.(check bool) "other seed, other requests" false (reqs 42 = reqs 7);
  Alcotest.(check bool) "other seed, other arrivals" false (arr 42 = arr 7);
  Alcotest.(check bool) "ids run from first_id" true
    (Array.for_all2
       (fun i (_, line) ->
         Json.find "id" (Json.parse_exn line) = Some (Json.Num (float_of_int i)))
       (Array.init 200 Fun.id) (reqs 42));
  (* every line is a request the engine accepts: an op plus the fields
     its kind needs *)
  Array.iter
    (fun (kind, line) ->
      let j = Json.parse_exn line in
      let op = Json.find "op" j in
      let expect =
        match kind with
        | Gen.Quantile | Gen.Scenario -> "quantile"
        | Gen.Whatif | Gen.Commit -> "whatif"
        | Gen.Paths -> "paths"
        | Gen.Report -> "report"
        | Gen.Revert -> "revert"
      in
      Alcotest.(check bool) line true (op = Some (Json.Str expect)))
    (reqs 42)

(* ---- tail percentile rule ---------------------------------------------- *)

let test_tail_rule () =
  let sample n = Array.init n (fun i -> float_of_int (i + 1)) in
  let check n (p, v) =
    let p', v' = Stats.tail (sample n) in
    Alcotest.(check (pair fl fl)) (Printf.sprintf "n=%d" n) (p, v) (p', v')
  in
  check 1 (50.0, 1.0);
  check 2 (50.0, 1.5);
  check 19 (50.0, 10.0);
  check 20 (50.0, 10.0);
  check 39 (50.0, 20.0);
  check 40 (75.0, 30.0);
  check 99 (75.0, 75.0);
  check 100 (90.0, 90.0);
  check 999 (95.0, 950.0);
  check 1000 (99.0, 990.0);
  check 10000 (99.9, 9990.0);
  (* order of the input does not matter *)
  let shuffled = Array.init 1000 (fun i -> float_of_int (((i * 7919) mod 1000) + 1)) in
  Alcotest.(check (pair fl fl)) "shuffled" (99.0, 990.0) (Stats.tail shuffled)

let test_quartiles_match_python () =
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let q1, q2, q3 = Stats.quartiles (Array.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check (list fl)) "1..10" [ 2.75; 5.5; 8.25 ] [ q1; q2; q3 ];
  (* statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0] *)
  let q1, q2, q3 = Stats.quartiles [| 3.0; 1.0; 2.0 |] in
  Alcotest.(check (list fl)) "three" [ 1.0; 2.0; 3.0 ] [ q1; q2; q3 ];
  Alcotest.(check fl) "median even" 2.5 (Stats.median [| 4.0; 1.0; 3.0; 2.0 |])

let test_by_kind () =
  (* half fast 0.1 s runs, half slow 1.0 s runs *)
  let runs n v = Array.make n v in
  let pooled nfast nslow = Stats.median (Array.append (runs nfast 0.1) (runs nslow 1.0)) in
  let p50, mean = Stats.by_kind [ (0.5, runs 51 0.1); (0.5, runs 49 1.0) ] in
  Alcotest.(check fl) "weighted medians" 0.55 p50;
  Alcotest.(check fl) "weighted means" 0.55 mean;
  Alcotest.(check (pair fl fl)) "independent of run counts" (p50, mean)
    (Stats.by_kind [ (0.5, runs 49 0.1); (0.5, runs 51 1.0) ]);
  (* the pooled median jumps from one kind to the other *)
  Alcotest.(check fl) "pooled, more fast runs" 0.1 (pooled 51 49);
  Alcotest.(check fl) "pooled, more slow runs" 1.0 (pooled 49 51);
  (* an op of ten parts, each run a different number of times *)
  let parts = List.init 10 (fun i -> (1.0, runs (i + 1) (float_of_int i))) in
  Alcotest.(check fl) "pass assembled from parts" 45.0 (fst (Stats.by_kind parts))

(* ---- self times --------------------------------------------------------- *)

let span ?(obs = []) id parent name start stop =
  { Trace.id; parent; name; start; stop; req = -1; reqs = []; obs; counters = [] }

let test_self_times () =
  let spans =
    [
      span 0 (-1) "pass" 0.0 10.0;
      span 1 0 "frontend.parse" 0.2 0.8;
      span 2 0 "extract" 1.0 9.0
        ~obs:
          [
            ("extract.criticality", 5.0);
            ("criticality.backward", 2.0);
            ("criticality.screen", 2.5);
            ("extract.reduce", 1.0);
          ];
    ]
  in
  let self = Trace.self_times spans in
  let get n = List.assoc n self in
  Alcotest.(check fl) "root minus children" 1.4 (get "pass");
  Alcotest.(check fl) "leaf" 0.6 (get "frontend.parse");
  Alcotest.(check fl) "bench span minus outermost obs spans" 2.0 (get "extract");
  Alcotest.(check fl) "obs span minus obs children" 0.5 (get "extract.criticality");
  Alcotest.(check fl) "obs leaf" 2.5 (get "criticality.screen");
  Alcotest.(check fl) "self times add up to the roots" (Trace.roots_seconds spans)
    (List.fold_left (fun acc (_, v) -> acc +. v) 0.0 self)

let test_counters_per_op () =
  let harvest id parent counters =
    { (span id parent "extract" 0.0 1.0) with Trace.counters }
  in
  (* c432 traced twice, c7552 once: per op (a pass) each counts once *)
  let spans =
    [
      span 0 (-1) "c432" 0.0 1.0;
      harvest 1 0 [ ("evals", 10) ];
      span 2 (-1) "c432" 1.0 2.0;
      harvest 3 2 [ ("evals", 10) ];
      span 4 (-1) "c7552" 2.0 9.0;
      span 5 4 "timing" 2.0 3.0;
      harvest 6 5 [ ("evals", 500); ("robust.x", 1) ];
    ]
  in
  let per_op = function "c432" -> 2.0 | _ -> 1.0 in
  Alcotest.(check (list (pair string fl))) "counts per pass"
    [ ("evals", 510.0); ("robust.x", 1.0) ]
    (Trace.counters_per_op ~per_op spans)

let test_recorded_tree () =
  Trace.reset ();
  Trace.set_enabled true;
  Trace.span "root" (fun () ->
      Trace.span "a" (fun () -> ());
      Trace.span "b" (fun () -> Trace.span "c" (fun () -> ())));
  Trace.set_enabled false;
  Trace.span "untraced" (fun () -> ());
  let by_name n = List.find (fun s -> s.Trace.name = n) !Trace.spans in
  let parent n = (by_name n).Trace.parent in
  Alcotest.(check int) "four spans" 4 (List.length !Trace.spans);
  Alcotest.(check int) "root" (-1) (parent "root");
  Alcotest.(check int) "a under root" (by_name "root").Trace.id (parent "a");
  Alcotest.(check int) "c under b" (by_name "b").Trace.id (parent "c");
  Trace.reset ()

(* ---- open-loop scheduler ------------------------------------------------ *)

let test_openloop_fake_clock () =
  let t = ref 0.0 in
  let clock =
    { Openloop.now = (fun () -> !t); sleep_until = (fun d -> t := Float.max !t d) }
  in
  let served = ref [] in
  (* every group takes 2 s, whatever its size *)
  let serve ~start first last =
    served := (start, first, last) :: !served;
    t := !t +. 2.0
  in
  let r = Openloop.run ~clock ~due:[| 0.0; 1.0; 1.5; 10.0 |] serve in
  Alcotest.(check (list (pair int int))) "groups" [ (0, 0); (1, 2); (3, 3) ]
    (Array.to_list r.Openloop.groups);
  Alcotest.(check (list fl)) "latency from due time" [ 2.0; 3.0; 2.5; 2.0 ]
    (Array.to_list r.Openloop.latency);
  Alcotest.(check (list fl)) "queue wait" [ 0.0; 1.0; 0.5; 0.0 ]
    (Array.to_list r.Openloop.wait);
  Alcotest.(check fl) "idle until the last arrival" 6.0 r.Openloop.idle;
  Alcotest.(check int) "backlog at the end" 1 r.Openloop.backlog_end;
  (* an overloaded server: arrivals every 0.5 s, 1 s per request *)
  t := 0.0;
  let serve_each ~start:_ first last = t := !t +. float_of_int (last - first + 1) in
  let due = Array.init 20 (fun i -> 0.5 *. float_of_int i) in
  let r = Openloop.run ~clock ~due serve_each in
  Alcotest.(check bool) "backlog grows" true (r.Openloop.backlog_end > 3);
  Alcotest.(check bool) "latency grows" true
    (r.Openloop.latency.(19) > r.Openloop.latency.(1))

(* ---- compare verdicts --------------------------------------------------- *)

let runs base = Array.init 10 (fun i -> base *. (1.0 +. (0.002 *. float_of_int (i mod 3))))

let verdict ?gains_count ?(better = Verdict.Lower) ?(bound = Some 0.1) parent change =
  Verdict.to_string (Verdict.judge ?gains_count ~better ~bound ~parent ~change ()).Verdict.verdict

let test_verdicts () =
  Alcotest.(check string) "faster everywhere" "improved" (verdict (runs 10.0) (runs 8.0));
  Alcotest.(check string) "slower beyond bound" "worse" (verdict (runs 10.0) (runs 12.0));
  Alcotest.(check string) "slower within bound" "same" (verdict (runs 10.0) (runs 10.5));
  Alcotest.(check string) "higher is better" "improved"
    (verdict ~better:Verdict.Higher (runs 10.0) (runs 12.0));
  let noisy = [| 6.0; 14.0; 7.0; 13.0; 8.0; 12.0; 9.0; 11.0; 10.0; 10.0 |] in
  Alcotest.(check string) "spread wider than bound" "unresolved"
    (verdict noisy (Array.map (fun v -> v *. 1.01) noisy));
  Alcotest.(check string) "nine pairs cannot claim a gain" "same"
    (verdict (Array.sub (runs 10.0) 0 9) (Array.sub (runs 8.0) 0 9));
  Alcotest.(check string) "no bound" "-" (verdict ~bound:None (runs 10.0) (runs 10.5))

let test_failures_refuse_gains () =
  let side failed incorrect = { Verdict.failed; incorrect } in
  let gains parent change = Verdict.gains_count ~parent ~change in
  Alcotest.(check bool) "no failures" true (gains (side 0 0) (side 0 0));
  Alcotest.(check bool) "as many failures as the parent" true (gains (side 3 1) (side 3 0));
  Alcotest.(check bool) "more failed ops" false (gains (side 0 0) (side 1 0));
  Alcotest.(check bool) "a change run failed a check" false (gains (side 5 1) (side 0 1));
  Alcotest.(check string) "a gain is refused" "refused"
    (verdict ~gains_count:false (runs 10.0) (runs 8.0));
  Alcotest.(check string) "a regression still shows" "worse"
    (verdict ~gains_count:false (runs 10.0) (runs 12.0))

let () =
  Alcotest.run "ledger"
    [
      ( "inputs",
        [
          Alcotest.test_case "design text is seeded" `Quick test_design_text_seeded;
          Alcotest.test_case "requests are seeded" `Quick test_requests_seeded;
        ] );
      ( "stats",
        [
          Alcotest.test_case "tail percentile rule" `Quick test_tail_rule;
          Alcotest.test_case "quartiles match python" `Quick test_quartiles_match_python;
          Alcotest.test_case "per-kind op statistics" `Quick test_by_kind;
        ] );
      ( "trace",
        [
          Alcotest.test_case "self times" `Quick test_self_times;
          Alcotest.test_case "counters per op" `Quick test_counters_per_op;
          Alcotest.test_case "recorded span tree" `Quick test_recorded_tree;
        ] );
      ("openloop", [ Alcotest.test_case "fake clock" `Quick test_openloop_fake_clock ]);
      ( "compare",
        [
          Alcotest.test_case "verdicts" `Quick test_verdicts;
          Alcotest.test_case "failures refuse gains" `Quick test_failures_refuse_gains;
        ] );
    ]
