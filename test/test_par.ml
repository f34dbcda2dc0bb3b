(* Determinism pins for the Ssta_par domain pool: chunked scheduling must
   produce bit-identical results for every domain count, on adversarial
   chunk sizes (0 - clamped to 1 - single-element, prime, and larger than
   the item count), and the parallel MC / criticality engines built on it
   must agree with their sequential (domains = 1) path exactly.  Domain
   counts are picked through the process-wide setting ([with_domains]),
   the only way to select one. *)

module Par = Ssta_par.Par
module Rng = Ssta_gauss.Rng
module Build = Ssta_timing.Build
module Flat_mc = Ssta_mc.Flat_mc
module Allpairs_mc = Ssta_mc.Allpairs_mc
module Sampler = Ssta_mc.Sampler

let domain_counts = [ 1; 2; 3; 8 ]
let at d f = Par.with_domains d f
let adversarial_chunks n = [ 0; 1; 7; n + 3 ]

(* NaN-proof float comparison: unreachable pairs are nan on both sides and
   must compare equal. *)
let bits = Int64.bits_of_float
let bits2 m = Array.map (Array.map bits) m

(* --- map_chunks equals the sequential fold ----------------------------- *)

let qcheck_map_chunks =
  let prop n =
    let items = Array.init n (fun i -> (i * 7919) mod 257) in
    List.for_all
      (fun chunk ->
        (* Sequential reference: partition [0, n) in index order and sum
           each slice by hand. *)
        let reference =
          Array.init (Par.n_chunks ~chunk n) (fun c ->
              let lo, hi = Par.chunk_bounds ~chunk ~n c in
              let acc = ref 0 in
              for i = lo to hi - 1 do
                acc := !acc + items.(i)
              done;
              (lo, hi, !acc))
        in
        List.for_all
          (fun domains ->
            let got =
              at domains (fun () ->
                  Par.map_chunks ~chunk ~n (fun ~chunk:_ ~lo ~hi ->
                      let acc = ref 0 in
                      for i = lo to hi - 1 do
                        acc := !acc + items.(i)
                      done;
                      (lo, hi, !acc)))
            in
            got = reference)
          domain_counts)
      (adversarial_chunks n)
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:30 ~name:"map_chunks = sequential fold"
       QCheck.(int_range 0 200)
       prop)

let qcheck_chunk_partition =
  let prop (n, chunk) =
    let k = Par.n_chunks ~chunk n in
    let ranges = List.init k (fun c -> Par.chunk_bounds ~chunk ~n c) in
    (* The ranges tile [0, n) exactly, in order, with no empty chunk. *)
    let rec check expected = function
      | [] -> expected = n
      | (lo, hi) :: rest -> lo = expected && hi > lo && check hi rest
    in
    (n = 0 && k = 0) || check 0 ranges
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100 ~name:"chunk layout tiles [0, n)"
       QCheck.(pair (int_range 0 500) (int_range 0 60))
       prop)

(* [with_domains] is the only way a caller selects a domain count for a
   region: it must clamp like [set_domains] and restore the previous
   setting on return, on an exception and through nesting. *)
let test_with_domains () =
  let ci = Alcotest.(check int) in
  let outer = Par.domains () in
  ci "returns f's value" 7 (at 3 (fun () -> 7));
  ci "restored after return" outer (Par.domains ());
  (match at 5 (fun () -> failwith "boom") with
  | () -> Alcotest.fail "exception swallowed"
  | exception Failure _ -> ());
  ci "restored after raise" outer (Par.domains ());
  at 2 (fun () ->
      ci "outer setting" 2 (Par.domains ());
      at 6 (fun () -> ci "inner setting" 6 (Par.domains ()));
      ci "inner unwound to outer" 2 (Par.domains ());
      (try at 4 (fun () -> raise Exit) with Exit -> ());
      ci "raising inner unwound to outer" 2 (Par.domains ()));
  ci "nest unwound" outer (Par.domains ());
  at 0 (fun () -> ci "0 clamps to 1" 1 (Par.domains ()));
  at (-3) (fun () -> ci "negative clamps to 1" 1 (Par.domains ()));
  ci "restored after clamp" outer (Par.domains ())

let test_run_tasks_scratch_and_exn () =
  (* Per-worker scratch is built once per worker; task exceptions surface
     after the join barrier. *)
  let builds = Atomic.make 0 in
  at 3 (fun () ->
      Par.run_tasks ~n_tasks:11
        ~init:(fun () -> Atomic.incr builds)
        ~task:(fun () _ -> ())
        ());
  Alcotest.(check bool)
    "at most one scratch per worker" true
    (Atomic.get builds <= 3);
  Alcotest.(check bool)
    "task exception propagates" true
    (try
       at 2 (fun () ->
           Par.run_tasks ~n_tasks:8
             ~init:(fun () -> ())
             ~task:(fun () i -> if i = 5 then failwith "boom")
             ());
       false
     with Failure _ -> true)

(* --- RNG substream family --------------------------------------------- *)

let test_rng_stream () =
  let root = Rng.create ~seed:123 in
  let s0 = Rng.stream ~seed:123 ~index:0 in
  for _ = 1 to 32 do
    Alcotest.(check int64)
      "stream 0 = root stream" (Rng.bits64 root) (Rng.bits64 s0)
  done;
  let a = Rng.bits64 (Rng.stream ~seed:123 ~index:1) in
  let b = Rng.bits64 (Rng.stream ~seed:123 ~index:2) in
  let a' = Rng.bits64 (Rng.stream ~seed:123 ~index:1) in
  Alcotest.(check int64) "stream index reproducible" a a';
  Alcotest.(check bool) "streams decorrelated" true (a <> b)

(* --- MC engines: bit-identical across domain counts -------------------- *)

let ctx =
  lazy (Sampler.ctx_of_build (Build.characterize (Ssta_circuit.Iscas.build "c432")))

(* 700 iterations = 3 chunks: exercises both the substream derivation and
   the chunk merge, unlike the single-chunk 250-iteration goldens. *)
let test_flat_mc_domains () =
  let ctx = Lazy.force ctx in
  let run d = at d (fun () -> Flat_mc.run ~iterations:700 ~seed:9 ctx) in
  let r1 = run 1 in
  List.iter
    (fun d ->
      let rd = run d in
      Alcotest.(check bool)
        (Printf.sprintf "flat delays bit-equal at %d domains" d)
        true
        (Array.map bits r1.Flat_mc.delays = Array.map bits rd.Flat_mc.delays))
    domain_counts

let test_allpairs_mc_domains () =
  let ctx = Lazy.force ctx in
  let run d = at d (fun () -> Allpairs_mc.run ~iterations:700 ~seed:5 ctx) in
  let r1 = run 1 in
  List.iter
    (fun d ->
      let rd = run d in
      Alcotest.(check bool)
        (Printf.sprintf "allpairs means bit-equal at %d domains" d)
        true
        (bits2 r1.Allpairs_mc.means = bits2 rd.Allpairs_mc.means);
      Alcotest.(check bool)
        (Printf.sprintf "allpairs stds bit-equal at %d domains" d)
        true
        (bits2 r1.Allpairs_mc.stds = bits2 rd.Allpairs_mc.stds);
      Alcotest.(check bool)
        (Printf.sprintf "allpairs reachability equal at %d domains" d)
        true
        (r1.Allpairs_mc.reachable = rd.Allpairs_mc.reachable))
    domain_counts

(* --- Criticality and extraction: bit-identical models ------------------ *)

let test_criticality_domains () =
  let b = Build.characterize (Ssta_circuit.Iscas.build "c432") in
  let module C = Hier_ssta.Criticality in
  List.iter
    (fun exact ->
      let run d =
        at d (fun () ->
            C.compute ~exact ~delta:0.05 b.Build.graph ~forms:b.Build.forms)
      in
      let r1 = run 1 in
      List.iter
        (fun d ->
          let rd = run d in
          let tag =
            Printf.sprintf "(exact=%b, %d domains)" exact d
          in
          Alcotest.(check bool)
            ("keep bit-equal " ^ tag) true (r1.C.keep = rd.C.keep);
          Alcotest.(check bool)
            ("cm bit-equal " ^ tag)
            true
            (Array.map bits r1.C.cm = Array.map bits rd.C.cm);
          Alcotest.(check int)
            ("exact_evals equal " ^ tag) r1.C.exact_evals rd.C.exact_evals;
          Alcotest.(check int)
            ("screened equal " ^ tag) r1.C.screened_pairs rd.C.screened_pairs)
        domain_counts)
    [ false; true ]

let test_extract_domains () =
  let b = Build.characterize (Ssta_circuit.Iscas.build "c432") in
  let module T = Hier_ssta.Timing_model in
  let run d =
    at d (fun () ->
        let m = Hier_ssta.Extract.extract b in
        (m, T.io_delays m))
  in
  let m1, io1 = run 1 in
  List.iter
    (fun d ->
      let md, iod = run d in
      Alcotest.(check bool)
        (Printf.sprintf "model forms bit-equal at %d domains" d)
        true
        (m1.T.forms = md.T.forms);
      Alcotest.(check int)
        (Printf.sprintf "model edges equal at %d domains" d)
        m1.T.stats.T.model_edges md.T.stats.T.model_edges;
      Alcotest.(check bool)
        (Printf.sprintf "io_delays bit-equal at %d domains" d)
        true (io1 = iod))
    domain_counts

(* The pure parser behind PAR_DOMAINS: positive integers only; anything
   else makes the pool warn and fall back to the CPU count. *)
let test_domains_parser () =
  let dc = Alcotest.(check (option int)) in
  dc "int" (Some 4) (Par.domains_of_string "4");
  dc "trimmed" (Some 2) (Par.domains_of_string " 2 ");
  dc "zero rejected" None (Par.domains_of_string "0");
  dc "negative rejected" None (Par.domains_of_string "-1");
  dc "word rejected" None (Par.domains_of_string "four");
  dc "empty rejected" None (Par.domains_of_string "")

let suites =
  [
    ( "par.pool",
      [
        qcheck_map_chunks;
        qcheck_chunk_partition;
        Alcotest.test_case "with_domains scoping" `Quick test_with_domains;
        Alcotest.test_case "run_tasks scratch + exceptions" `Quick
          test_run_tasks_scratch_and_exn;
        Alcotest.test_case "rng substream family" `Quick test_rng_stream;
        Alcotest.test_case "PAR_DOMAINS parser" `Quick test_domains_parser;
      ] );
    ( "par.engines",
      [
        Alcotest.test_case "flat mc across domains" `Slow
          test_flat_mc_domains;
        Alcotest.test_case "allpairs mc across domains" `Slow
          test_allpairs_mc_domains;
        Alcotest.test_case "criticality across domains" `Slow
          test_criticality_domains;
        Alcotest.test_case "extraction across domains" `Slow
          test_extract_domains;
      ] );
  ]
