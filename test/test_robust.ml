(* The graceful-degradation layer: structured errors, policy dispatch,
   repair kernels, the degenerate Clark branches against Monte Carlo
   references, Model_io round-trip/mutation fuzz, and the deterministic
   fault-injection corpus. *)

module Robust = Ssta_robust.Robust
module Inject = Ssta_robust_inject.Inject
module Normal = Ssta_gauss.Normal
module Stats = Ssta_gauss.Stats
module Rng = Ssta_gauss.Rng
module Form = Ssta_canonical.Form
module Form_buf = Ssta_canonical.Form_buf
module Mat = Ssta_linalg.Mat
module Sym_eig = Ssta_linalg.Sym_eig
module Pca = Ssta_linalg.Pca
module Build = Ssta_timing.Build
module H = Hier_ssta

let cval name = Robust.value (Robust.counter name)

let build = lazy (Build.characterize (Ssta_circuit.Iscas.build "c432"))
let model = lazy (H.Extract.extract (Lazy.force build))
let inject_ctx = lazy (Inject.make_ctx "c432")

(* ------------------------------------------------------------------ *)
(* Policy and counters                                                 *)
(* ------------------------------------------------------------------ *)

let test_policy_of_string () =
  List.iter
    (fun (s, p) ->
      match Robust.policy_of_string s with
      | Ok p' -> Alcotest.(check string) s (Robust.policy_name p) (Robust.policy_name p')
      | Error m -> Alcotest.fail m)
    [ ("strict", Robust.Strict); ("repair", Robust.Repair); ("warn", Robust.Warn) ];
  match Robust.policy_of_string "lenient" with
  | Ok _ -> Alcotest.fail "bogus policy accepted"
  | Error _ -> ()

let test_policy_dispatch () =
  let c = Robust.counter "robust.test_dispatch" in
  let ctx =
    Robust.context ~subsystem:"test" ~operation:"dispatch" ~indices:[ 7 ]
      ~values:[ 3.5 ] "synthetic"
  in
  Robust.with_policy Robust.Strict (fun () ->
      Robust.reset ();
      (match Robust.repair c ctx with
      | () -> Alcotest.fail "strict policy did not raise"
      | exception Robust.Error c' ->
          Alcotest.(check string) "subsystem" "test" c'.Robust.subsystem;
          Alcotest.(check (list int)) "indices" [ 7 ] c'.Robust.indices);
      Alcotest.(check int) "no count on strict raise" 0 (Robust.value c));
  Robust.with_policy Robust.Repair (fun () ->
      Robust.reset ();
      Robust.repair c ctx;
      Robust.repair c ctx;
      Alcotest.(check int) "repair counts" 2 (Robust.value c);
      Alcotest.(check bool) "listed" true
        (List.mem_assoc "robust.test_dispatch" (Robust.counters ()));
      Robust.reset ();
      Alcotest.(check int) "reset" 0 (Robust.value c))

let test_counter_idempotent () =
  let a = Robust.counter "robust.test_same" in
  let b = Robust.counter "robust.test_same" in
  Robust.with_policy Robust.Repair (fun () ->
      Robust.reset ();
      Robust.repair a
        (Robust.context ~subsystem:"test" ~operation:"same" "synthetic");
      Alcotest.(check int) "same cell" 1 (Robust.value b))

let test_error_to_string () =
  let c =
    Robust.context ~subsystem:"linalg.test" ~operation:"op"
      ~indices:[ 1; 2 ] ~values:[ Float.nan ] "what happened"
  in
  let s = Robust.to_string c in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "%S mentions %S" s needle)
        true
        (let nl = String.length needle and sl = String.length s in
         let rec at i =
           i + nl <= sl && (String.sub s i nl = needle || at (i + 1))
         in
         at 0))
    [ "linalg.test"; "op"; "what happened"; "1 2"; "nan" ]

(* ------------------------------------------------------------------ *)
(* Degenerate Clark max vs Monte Carlo references                      *)
(* ------------------------------------------------------------------ *)

(* Sample max(A,B) for jointly Gaussian A, B and compare against the
   analytic moments.  10^5 samples put the standard error of the mean
   near 0.005 for unit variances; tolerances are set at ~4 sigma. *)
let mc_max ~mean_a ~var_a ~mean_b ~var_b ~cov seed =
  let n = 100_000 in
  let rng = Rng.create ~seed in
  let sa = sqrt var_a and sb = sqrt var_b in
  let rho = if sa = 0.0 || sb = 0.0 then 0.0 else cov /. (sa *. sb) in
  let rho = Float.min 1.0 (Float.max (-1.0) rho) in
  let acc = Stats.Welford.create () in
  for _ = 1 to n do
    let x = Rng.gaussian rng in
    let y = Rng.gaussian rng in
    let a = mean_a +. (sa *. x) in
    let b =
      mean_b +. (sb *. ((rho *. x) +. (sqrt (1.0 -. (rho *. rho)) *. y)))
    in
    Stats.Welford.add acc (Float.max a b)
  done;
  (Stats.Welford.mean acc, Stats.Welford.variance acc)

let check_against_mc name ~mean_a ~var_a ~mean_b ~var_b ~cov =
  let r = Normal.clark_max ~mean_a ~var_a ~mean_b ~var_b ~cov in
  let mc_mean, mc_var = mc_max ~mean_a ~var_a ~mean_b ~var_b ~cov 1234 in
  Alcotest.(check bool)
    (Printf.sprintf "%s mean %.4f vs MC %.4f" name r.Normal.mean mc_mean)
    true
    (abs_float (r.Normal.mean -. mc_mean) < 0.03);
  Alcotest.(check bool)
    (Printf.sprintf "%s variance %.4f vs MC %.4f" name r.Normal.variance mc_var)
    true
    (abs_float (r.Normal.variance -. mc_var) < 0.05)

let test_clark_degenerate_vs_mc () =
  (* sigma_a = 0: A is the constant mean_a. *)
  check_against_mc "sigma_a=0" ~mean_a:0.4 ~var_a:0.0 ~mean_b:0.0 ~var_b:1.0
    ~cov:0.0;
  check_against_mc "sigma_b=0" ~mean_a:0.0 ~var_a:1.0 ~mean_b:0.4 ~var_b:0.0
    ~cov:0.0;
  (* rho = -1: B = 2*mean_b - A shifted; genuinely two-sided max. *)
  check_against_mc "rho=-1" ~mean_a:0.1 ~var_a:1.0 ~mean_b:0.0 ~var_b:1.0
    ~cov:(-1.0);
  (* Equal moments, partial correlation: the generic branch. *)
  check_against_mc "equal moments" ~mean_a:0.0 ~var_a:1.0 ~mean_b:0.0
    ~var_b:1.0 ~cov:0.3

let test_clark_exact_closed_forms () =
  (* rho = +1 with equal sigmas: max(m_a + x, m_b + x) is exactly
     max(m_a, m_b) + x - the tie branch must be exact, not approximate. *)
  let r = Normal.clark_max ~mean_a:0.7 ~var_a:1.0 ~mean_b:0.2 ~var_b:1.0 ~cov:1.0 in
  Alcotest.(check (float 0.0)) "rho=1 mean" 0.7 r.Normal.mean;
  Alcotest.(check (float 0.0)) "rho=1 variance" 1.0 r.Normal.variance;
  Alcotest.(check (float 0.0)) "rho=1 tightness" 1.0 r.Normal.tightness;
  (* Both constants: max of two numbers. *)
  let r = Normal.clark_max ~mean_a:1.0 ~var_a:0.0 ~mean_b:3.0 ~var_b:0.0 ~cov:0.0 in
  Alcotest.(check (float 0.0)) "const mean" 3.0 r.Normal.mean;
  Alcotest.(check (float 0.0)) "const variance" 0.0 r.Normal.variance;
  (* A variable maxed with itself (cov = var): the operand, exactly. *)
  let r = Normal.clark_max ~mean_a:0.5 ~var_a:2.0 ~mean_b:0.5 ~var_b:2.0 ~cov:2.0 in
  Alcotest.(check (float 0.0)) "self-max mean" 0.5 r.Normal.mean;
  Alcotest.(check (float 0.0)) "self-max variance" 2.0 r.Normal.variance

let test_clark_generic_approaches_degenerate () =
  (* The generic path at var_a = eps must converge to the closed form at
     var_a = 0 as eps -> 0+ (no branch discontinuity). *)
  let at va =
    (Normal.clark_max ~mean_a:0.3 ~var_a:va ~mean_b:0.0 ~var_b:1.0 ~cov:0.0)
      .Normal.mean
  in
  let limit = at 0.0 in
  List.iter
    (fun eps ->
      Alcotest.(check bool)
        (Printf.sprintf "var_a=%g close to limit" eps)
        true
        (abs_float (at eps -. limit) < 1e-3))
    [ 1e-6; 1e-9; 1e-12 ]

let bits = Int64.bits_of_float

let test_clark_into_bit_equality () =
  (* clark_max_into must match clark_max bit for bit, on valid degenerate
     operands and on faulty operands routed through the repair branch. *)
  Robust.with_policy Robust.Repair (fun () ->
      List.iter
        (fun (mean_a, var_a, mean_b, var_b, cov) ->
          let r = Normal.clark_max ~mean_a ~var_a ~mean_b ~var_b ~cov in
          let s = [| mean_a; var_a; mean_b; var_b; cov |] in
          Normal.clark_max_into s;
          Alcotest.(check int64) "tightness bits" (bits r.Normal.tightness)
            (bits s.(0));
          Alcotest.(check int64) "mean bits" (bits r.Normal.mean) (bits s.(1));
          Alcotest.(check int64) "variance bits" (bits r.Normal.variance)
            (bits s.(2)))
        [
          (0.4, 0.0, 0.0, 1.0, 0.0);
          (0.7, 1.0, 0.2, 1.0, 1.0);
          (0.1, 1.0, 0.0, 1.0, -1.0);
          (0.5, 2.0, 0.5, 2.0, 2.0);
          (1.0, 0.0, 3.0, 0.0, 0.0);
          (Float.nan, 1.0, 0.0, 1.0, 0.0);
          (0.0, Float.infinity, 0.0, 1.0, 0.0);
          (0.0, -1.0, 0.0, 1.0, 0.0);
        ])

let test_clark_faulty_operands () =
  let run () =
    Normal.clark_max ~mean_a:Float.nan ~var_a:1.0 ~mean_b:0.0 ~var_b:1.0
      ~cov:0.0
  in
  Robust.with_policy Robust.Strict (fun () ->
      Robust.reset ();
      match run () with
      | _ -> Alcotest.fail "strict accepted NaN operand"
      | exception Robust.Error c ->
          Alcotest.(check string) "subsystem" "gauss.normal" c.Robust.subsystem);
  Robust.with_policy Robust.Repair (fun () ->
      Robust.reset ();
      let r = run () in
      Alcotest.(check bool) "finite mean" true (Robust.is_finite r.Normal.mean);
      Alcotest.(check bool) "degenerate counted" true
        (cval "robust.clark_degenerate" > 0))

let test_form_buf_degenerate_bit_equality () =
  (* The buffered kernel and the boxed path must agree bitwise on
     zero-variance operands (the tie/degenerate branches). *)
  let dims = { Form.n_globals = 2; n_pcs = 3 } in
  let zv =
    Form.make ~mean:5.0 ~globals:[| 0.0; 0.0 |] ~pcs:[| 0.0; 0.0; 0.0 |]
      ~rand:0.0
  in
  let g = Form.make ~mean:4.0 ~globals:[| 0.3; -0.1 |] ~pcs:[| 0.2; 0.0; 0.1 |] ~rand:0.4 in
  List.iter
    (fun (a, b) ->
      let buf = Sweep_oracle.pack dims [| a; b; a |] in
      Form_buf.max2_into ~a:buf ~ia:0 ~b:buf ~ib:1 ~dst:buf ~idst:2;
      let got = Form_buf.get buf 2 in
      let want = Sweep_oracle.max2 a b in
      Alcotest.(check int64) "mean bits" (bits want.Form.mean) (bits got.Form.mean);
      Alcotest.(check int64) "rand bits" (bits want.Form.rand) (bits got.Form.rand);
      Array.iteri
        (fun i w ->
          Alcotest.(check int64) "global bits" (bits w) (bits got.Form.globals.(i)))
        want.Form.globals;
      Array.iteri
        (fun i w ->
          Alcotest.(check int64) "pc bits" (bits w) (bits got.Form.pcs.(i)))
        want.Form.pcs)
    [ (zv, g); (g, zv); (zv, zv); (g, g) ]

(* ------------------------------------------------------------------ *)
(* Stats boundaries                                                    *)
(* ------------------------------------------------------------------ *)

let test_histogram_dropped () =
  let xs = [| 0.5; 1.5; -0.5; 0.25 |] in
  let counts, dropped = Stats.histogram_dropped ~lo:0.0 ~hi:1.0 ~bins:2 xs in
  Alcotest.(check int) "dropped" 2 dropped;
  Alcotest.(check int) "kept" 2 (Array.fold_left ( + ) 0 counts);
  let counts' = Stats.histogram ~lo:0.0 ~hi:1.0 ~bins:2 xs in
  Alcotest.(check (array int)) "histogram = fst" counts counts'

let test_stats_nan_rejected () =
  let xs = [| 1.0; Float.nan; 3.0 |] in
  List.iter
    (fun (name, f) ->
      match f xs with
      | _ -> Alcotest.fail (name ^ " accepted NaN")
      | exception Robust.Error c ->
          Alcotest.(check string)
            (name ^ " subsystem") "gauss.stats" c.Robust.subsystem;
          Alcotest.(check (list int)) (name ^ " index") [ 1 ] c.Robust.indices)
    [
      ("mean", fun xs -> ignore (Stats.mean xs));
      ("quantile", fun xs -> ignore (Stats.quantile xs 0.5));
      ("empirical_cdf", fun xs -> ignore (Stats.empirical_cdf xs));
      ("histogram", fun xs -> ignore (Stats.histogram ~bins:4 xs));
    ]

(* ------------------------------------------------------------------ *)
(* Linalg boundaries                                                   *)
(* ------------------------------------------------------------------ *)

let test_sym_eig_nonfinite_rejected () =
  let c = Mat.init 2 2 (fun i j -> if i = 0 && j = 1 then Float.nan else 1.0) in
  Robust.with_policy Robust.Repair (fun () ->
      (* Non-finite input to the eigensolver is unrepairable at this level:
         it raises under every policy. *)
      match Sym_eig.decompose c with
      | _ -> Alcotest.fail "decompose accepted NaN"
      | exception Robust.Error c' ->
          Alcotest.(check string) "subsystem" "linalg.sym_eig"
            c'.Robust.subsystem)

let test_pca_psd_policy () =
  let c =
    Mat.init 2 2 (fun i j -> if i = j then 1.0 else 10.0)
  in
  Robust.with_policy Robust.Strict (fun () ->
      match Pca.of_covariance c with
      | _ -> Alcotest.fail "strict accepted an indefinite covariance"
      | exception Robust.Error c' ->
          Alcotest.(check string) "subsystem" "linalg.pca" c'.Robust.subsystem);
  Robust.with_policy Robust.Repair (fun () ->
      Robust.reset ();
      let p = Pca.of_covariance c in
      Alcotest.(check bool) "clip counted" true (cval "robust.psd_clips" > 0);
      Array.iter
        (fun v ->
          Alcotest.(check bool) "eigenvalues clipped PSD" true (v >= 0.0))
        p.Pca.values)

(* ------------------------------------------------------------------ *)
(* Model_io round-trip and mutation fuzz                               *)
(* ------------------------------------------------------------------ *)

let random_form rng ~like:(f : Form.t) =
  let wild () =
    let m = (2.0 *. Rng.uniform rng) -. 1.0 in
    ldexp m (Rng.int rng 600 - 300)
  in
  Form.make ~mean:(wild ())
    ~globals:(Array.map (fun _ -> wild ()) f.Form.globals)
    ~pcs:(Array.map (fun _ -> wild ()) f.Form.pcs)
    ~rand:(abs_float (wild ()))

let test_model_io_roundtrip_fuzz () =
  let m = Lazy.force model in
  let rng = Rng.create ~seed:7 in
  for _ = 1 to 10 do
    let forms =
      Array.map
        (fun f -> random_form rng ~like:f)
        (Sweep_oracle.unpack m.H.Timing_model.forms)
    in
    let m' =
      {
        m with
        H.Timing_model.forms =
          Sweep_oracle.pack m.H.Timing_model.basis.Ssta_variation.Basis.dims
            forms;
      }
    in
    let text = H.Model_io.to_string m' in
    let m'' = H.Model_io.of_string text in
    (* Serialization is canonical, so bit-exactness of the round-trip is
       string equality of a second serialization. *)
    Alcotest.(check string) "write-read-write fixpoint" text
      (H.Model_io.to_string m'')
  done

let test_model_io_truncation_fuzz () =
  let text = H.Model_io.to_string (Lazy.force model) in
  let lines = String.split_on_char '\n' text in
  let n = List.length lines in
  let prefix k =
    String.concat "\n" (List.filteri (fun i _ -> i < k) lines)
  in
  List.iter
    (fun k ->
      match H.Model_io.of_string (prefix k) with
      | _ -> Alcotest.fail (Printf.sprintf "truncation at %d parsed" k)
      | exception Robust.Error c ->
          Alcotest.(check string)
            (Printf.sprintf "structured error at %d lines" k)
            "model_io" c.Robust.subsystem;
          Alcotest.(check bool) "carries a line position" true
            (c.Robust.indices <> [])
      | exception e ->
          Alcotest.fail
            (Printf.sprintf "raw exception escaped at %d lines: %s" k
               (Printexc.to_string e)))
    [ 1; 2; 5; n / 2; n - 2 ]

let test_model_io_mutation_fuzz () =
  let text = H.Model_io.to_string (Lazy.force model) in
  let lines = Array.of_list (String.split_on_char '\n' text) in
  let rng = Rng.create ~seed:99 in
  Robust.with_policy Robust.Strict (fun () ->
      for _ = 1 to 200 do
        let li = Rng.int rng (Array.length lines) in
        let toks = String.split_on_char ' ' lines.(li) in
        let ti = Rng.int rng (max 1 (List.length toks)) in
        let bad = [| "x"; "nan"; "-3"; ""; "1e999" |] in
        let sub = bad.(Rng.int rng (Array.length bad)) in
        let mutated =
          String.concat " "
            (List.mapi (fun i t -> if i = ti then sub else t) toks)
        in
        let save = lines.(li) in
        lines.(li) <- mutated;
        let text' = String.concat "\n" (Array.to_list lines) in
        lines.(li) <- save;
        match H.Model_io.of_string text' with
        | _ -> () (* some mutations are benign (e.g. the model name) *)
        | exception Robust.Error _ -> ()
        | exception Invalid_argument m when m = "Pca.of_parts: eigenvalues not decreasing" ->
            (* A shuffled spectrum is a hard (unrepairable) defect with its
               own message; it must still not be a bare parse failure. *)
            ()
        | exception e ->
            Alcotest.fail
              (Printf.sprintf
                 "raw exception escaped for line %d token %d -> %S: %s" li ti
                 sub (Printexc.to_string e))
      done)

(* ------------------------------------------------------------------ *)
(* Clean-path bit-identity across policies                             *)
(* ------------------------------------------------------------------ *)

let test_clean_path_policy_invariant () =
  let b = Lazy.force build in
  let delay_under policy =
    Robust.with_policy policy (fun () ->
        Robust.reset ();
        let m = H.Extract.extract b in
        let nonzero = List.filter (fun (_, v) -> v > 0) (Robust.counters ()) in
        Alcotest.(check (list (pair string int)))
          (Robust.policy_name policy ^ " counters stay zero")
          [] nonzero;
        let io = H.Timing_model.io_delays m in
        let acc = ref [] in
        Array.iter
          (Array.iter (function
            | Some (f : Form.t) -> acc := bits f.Form.mean :: bits (Form.std f) :: !acc
            | None -> ()))
          io;
        !acc)
  in
  let strict = delay_under Robust.Strict in
  let repair = delay_under Robust.Repair in
  let warn = delay_under Robust.Warn in
  Alcotest.(check (list int64)) "strict = repair bitwise" strict repair;
  Alcotest.(check (list int64)) "strict = warn bitwise" strict warn

(* ------------------------------------------------------------------ *)
(* Fault-injection corpus                                              *)
(* ------------------------------------------------------------------ *)

let check_corpus policy () =
  let ctx = Lazy.force inject_ctx in
  let vs = Inject.run_corpus ctx ~seed:42 ~policy in
  Alcotest.(check int)
    "corpus covers every fault class in both flows"
    (2 * Array.length Inject.faults)
    (List.length vs);
  List.iter
    (fun (v : Inject.verdict) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s under %s: %s" v.Inject.fault
           (Inject.flow_name v.Inject.flow)
           (Robust.policy_name policy) v.Inject.detail)
        true v.Inject.ok)
    vs

let test_corpus_deterministic () =
  let ctx = Lazy.force inject_ctx in
  let run () =
    Inject.jsonl_of_verdicts (Inject.run_corpus ctx ~seed:42 ~policy:Robust.Repair)
  in
  Alcotest.(check string) "bit-stable verdicts" (run ()) (run ())

let suites =
  [
    ( "robust",
      [
        Alcotest.test_case "policy of_string" `Quick test_policy_of_string;
        Alcotest.test_case "policy dispatch" `Quick test_policy_dispatch;
        Alcotest.test_case "counter idempotent" `Quick test_counter_idempotent;
        Alcotest.test_case "error rendering" `Quick test_error_to_string;
      ] );
    ( "robust.clark",
      [
        Alcotest.test_case "degenerate vs MC" `Quick test_clark_degenerate_vs_mc;
        Alcotest.test_case "exact closed forms" `Quick
          test_clark_exact_closed_forms;
        Alcotest.test_case "generic approaches degenerate" `Quick
          test_clark_generic_approaches_degenerate;
        Alcotest.test_case "into bit-equality" `Quick
          test_clark_into_bit_equality;
        Alcotest.test_case "faulty operands" `Quick test_clark_faulty_operands;
        Alcotest.test_case "form_buf degenerate bit-equality" `Quick
          test_form_buf_degenerate_bit_equality;
      ] );
    ( "robust.boundaries",
      [
        Alcotest.test_case "histogram dropped count" `Quick
          test_histogram_dropped;
        Alcotest.test_case "stats reject NaN" `Quick test_stats_nan_rejected;
        Alcotest.test_case "sym_eig rejects non-finite" `Quick
          test_sym_eig_nonfinite_rejected;
        Alcotest.test_case "pca psd policy" `Quick test_pca_psd_policy;
      ] );
    ( "robust.model_io",
      [
        Alcotest.test_case "roundtrip fuzz" `Quick test_model_io_roundtrip_fuzz;
        Alcotest.test_case "truncation fuzz" `Quick
          test_model_io_truncation_fuzz;
        Alcotest.test_case "mutation fuzz" `Quick test_model_io_mutation_fuzz;
      ] );
    ( "robust.inject",
      [
        Alcotest.test_case "clean path policy-invariant" `Quick
          test_clean_path_policy_invariant;
        Alcotest.test_case "corpus strict" `Slow (check_corpus Robust.Strict);
        Alcotest.test_case "corpus repair" `Slow (check_corpus Robust.Repair);
        Alcotest.test_case "corpus deterministic" `Slow
          test_corpus_deterministic;
      ] );
  ]
