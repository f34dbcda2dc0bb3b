(* Tests for the canonical linear delay form (paper Section II): its
   moments, and the boxed statistical sum and max of [Sweep_oracle] - the
   reference the Form_buf kernels are checked against bit for bit in
   test_kernels.ml - validated both against closed-form moments and against
   direct simulation of the underlying variables. *)

module Form = Ssta_canonical.Form
module Normal = Ssta_gauss.Normal
module Rng = Ssta_gauss.Rng
module Stats = Ssta_gauss.Stats

let close ?(tol = 1e-9) msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

let dims = { Form.n_globals = 2; n_pcs = 3 }

let form mean globals pcs rand = Form.make ~mean ~globals ~pcs ~rand

let fa = form 10.0 [| 1.0; 0.5 |] [| 0.2; 0.0; 0.4 |] 0.3
let fb = form 11.0 [| 0.8; -0.2 |] [| 0.1; 0.3; 0.0 |] 0.5

let test_variance () =
  close "variance" (1.0 +. 0.25 +. 0.04 +. 0.16 +. 0.09) (Form.variance fa);
  close "std" (sqrt (Form.variance fa)) (Form.std fa);
  close "constant variance" 0.0 (Form.variance (Form.constant dims 5.0))

let test_covariance () =
  (* Only shared variables contribute: globals and PCs, not rands. *)
  close "covariance" ((1.0 *. 0.8) +. (0.5 *. -0.2) +. (0.2 *. 0.1)) (Form.covariance fa fb);
  close "self covariance = var - rand^2"
    (Form.variance fa -. (0.3 *. 0.3))
    (Form.covariance fa fa)

let test_add () =
  let s = Sweep_oracle.add fa fb in
  close "sum mean" 21.0 s.Form.mean;
  close "sum global 0" 1.8 s.Form.globals.(0);
  close "sum pc 1" 0.3 s.Form.pcs.(1);
  (* Random parts RSS-combine (variance matching, paper Section II). *)
  close "sum rand" (sqrt ((0.3 *. 0.3) +. (0.5 *. 0.5))) s.Form.rand;
  (* Var(A+B) = VarA + VarB + 2Cov. *)
  close ~tol:1e-9 "sum variance"
    (Form.variance fa +. Form.variance fb +. (2.0 *. Form.covariance fa fb))
    (Form.variance s)

let test_scale_neg () =
  let t = Form.scale (-2.0) fa in
  close "scale mean" (-20.0) t.Form.mean;
  close "scale rand stays positive" 0.6 t.Form.rand;
  close "scale variance" (4.0 *. Form.variance fa) (Form.variance t);
  let n = Form.scale (-1.0) fa in
  close "neg mean" (-10.0) n.Form.mean;
  close "neg variance" (Form.variance fa) (Form.variance n)

let test_max_moments_match_clark () =
  let mx = Sweep_oracle.max2 fa fb in
  let c =
    Normal.clark_max ~mean_a:fa.Form.mean ~var_a:(Form.variance fa)
      ~mean_b:fb.Form.mean ~var_b:(Form.variance fb)
      ~cov:(Form.covariance fa fb)
  in
  close ~tol:1e-9 "max mean = Clark mean" c.Normal.mean mx.Form.mean;
  close ~tol:1e-9 "max var = Clark var" c.Normal.variance (Form.variance mx)

let test_max_coefficients_blend () =
  let mx = Sweep_oracle.max2 fa fb in
  let tp = Sweep_oracle.tightness fa fb in
  close ~tol:1e-9 "global blended"
    ((tp *. 1.0) +. ((1.0 -. tp) *. 0.8))
    mx.Form.globals.(0);
  close ~tol:1e-9 "pc blended"
    ((tp *. 0.4) +. ((1.0 -. tp) *. 0.0))
    mx.Form.pcs.(2)

let test_max_dominated () =
  let lo = form 0.0 [| 0.1; 0.0 |] [| 0.0; 0.0; 0.0 |] 0.1 in
  let hi = form 100.0 [| 0.2; 0.0 |] [| 0.0; 0.0; 0.0 |] 0.1 in
  let mx = Sweep_oracle.max2 lo hi in
  Alcotest.(check bool)
    "dominant wins" true
    (Sweep_oracle.equal ~tol:1e-6 mx hi);
  close "tightness ~ 0" 0.0 (Sweep_oracle.tightness lo hi)

let test_max_symmetric () =
  let m1 = Sweep_oracle.max2 fa fb and m2 = Sweep_oracle.max2 fb fa in
  close ~tol:1e-9 "mean symmetric" m1.Form.mean m2.Form.mean;
  close ~tol:1e-9 "var symmetric" (Form.variance m1) (Form.variance m2);
  close ~tol:1e-9 "coeff symmetric" m1.Form.globals.(1) m2.Form.globals.(1)

let test_max_list () =
  let forms = [ fa; fb; form 9.0 [| 0.3; 0.3 |] [| 0.0; 0.1; 0.2 |] 0.2 ] in
  let m = Sweep_oracle.max_list forms in
  Alcotest.(check bool)
    "max_list >= all means" true
    (List.for_all (fun f -> m.Form.mean >= f.Form.mean -. 1e-9) forms);
  Alcotest.check_raises "empty max_list"
    (Invalid_argument "Sweep_oracle.max_list: empty list") (fun () ->
      ignore (Sweep_oracle.max_list []))

let test_max_vs_simulation () =
  let rng = Rng.create ~seed:78 in
  let macc = Stats.Welford.create () in
  let n = 40_000 in
  let globals = Array.make 2 0.0 and pcs = Array.make 3 0.0 in
  for _ = 1 to n do
    Rng.gaussian_fill rng globals;
    Rng.gaussian_fill rng pcs;
    let va = Sweep_oracle.sample fa ~globals ~pcs ~rand:(Rng.gaussian rng) in
    let vb = Sweep_oracle.sample fb ~globals ~pcs ~rand:(Rng.gaussian rng) in
    Stats.Welford.add macc (Float.max va vb)
  done;
  let mx = Sweep_oracle.max2 fa fb in
  close ~tol:0.03 "max mean vs sim" (Stats.Welford.mean macc) mx.Form.mean;
  close ~tol:0.03 "max std vs sim" (Stats.Welford.std macc) (Form.std mx)

let test_cdf_quantile () =
  close ~tol:1e-6 "cdf at mean" 0.5 (Form.cdf fa fa.Form.mean);
  let q = Form.quantile fa 0.9 in
  close ~tol:1e-7 "quantile roundtrip" 0.9 (Form.cdf fa q);
  let c = Form.constant dims 3.0 in
  close "constant cdf below" 0.0 (Form.cdf c 2.9);
  close "constant cdf above" 1.0 (Form.cdf c 3.0)

let test_make_rejects_negative_rand () =
  Alcotest.check_raises "negative rand rejected"
    (Invalid_argument "Form.make: negative random coefficient") (fun () ->
      ignore (form 0.0 [| 0.0; 0.0 |] [| 0.0; 0.0; 0.0 |] (-1.0)))

(* Property tests over randomly generated forms. *)

let gen_form =
  QCheck.Gen.(
    map4
      (fun mean g p r ->
        Form.make ~mean ~globals:(Array.of_list g) ~pcs:(Array.of_list p)
          ~rand:r)
      (float_range (-10.0) 50.0)
      (list_repeat 2 (float_range (-1.0) 1.0))
      (list_repeat 3 (float_range (-1.0) 1.0))
      (float_range 0.0 1.0))

let arb_form = QCheck.make ~print:(fun f -> Format.asprintf "%a" Form.pp f) gen_form

let qcheck_max_upper_bound =
  QCheck.Test.make ~count:300 ~name:"max2 mean dominates both means"
    (QCheck.pair arb_form arb_form) (fun (a, b) ->
      let m = Sweep_oracle.max2 a b in
      m.Form.mean >= a.Form.mean -. 1e-9 && m.Form.mean >= b.Form.mean -. 1e-9)

let qcheck_add_linear =
  QCheck.Test.make ~count:300 ~name:"sum is linear in means and coefficients"
    (QCheck.pair arb_form arb_form) (fun (a, b) ->
      let s = Sweep_oracle.add a b in
      abs_float (s.Form.mean -. (a.Form.mean +. b.Form.mean)) < 1e-9
      && abs_float (s.Form.globals.(0) -. (a.Form.globals.(0) +. b.Form.globals.(0)))
         < 1e-9)

let qcheck_correlation_bounds =
  QCheck.Test.make ~count:300 ~name:"correlation lies in [-1, 1]"
    (QCheck.pair arb_form arb_form) (fun (a, b) ->
      let c = Sweep_oracle.correlation a b in
      c >= -1.0 -. 1e-9 && c <= 1.0 +. 1e-9)

let qcheck_max_assoc_approx =
  QCheck.Test.make ~count:200 ~name:"max_list insensitive to order (approx)"
    (QCheck.triple arb_form arb_form arb_form) (fun (a, b, c) ->
      let m1 = Sweep_oracle.max_list [ a; b; c ] in
      let m2 = Sweep_oracle.max_list [ c; a; b ] in
      (* Moment matching is order-dependent; means should still agree to a
         small fraction of the spread. *)
      let scale = Float.max 1.0 (Form.std m1) in
      abs_float (m1.Form.mean -. m2.Form.mean) < 0.2 *. scale)

let q = QCheck_alcotest.to_alcotest

let suites =
  [
    ( "canonical.form",
      [
        Alcotest.test_case "variance" `Quick test_variance;
        Alcotest.test_case "covariance" `Quick test_covariance;
        Alcotest.test_case "statistical sum" `Quick test_add;
        Alcotest.test_case "scale and neg" `Quick test_scale_neg;
        Alcotest.test_case "max moments = Clark" `Quick
          test_max_moments_match_clark;
        Alcotest.test_case "max blends coefficients" `Quick
          test_max_coefficients_blend;
        Alcotest.test_case "max dominated" `Quick test_max_dominated;
        Alcotest.test_case "max symmetric" `Quick test_max_symmetric;
        Alcotest.test_case "max_list" `Quick test_max_list;
        Alcotest.test_case "max2 vs simulation" `Slow test_max_vs_simulation;
        Alcotest.test_case "cdf and quantile" `Quick test_cdf_quantile;
        Alcotest.test_case "make validation" `Quick
          test_make_rejects_negative_rand;
        q qcheck_max_upper_bound;
        q qcheck_add_linear;
        q qcheck_correlation_bounds;
        q qcheck_max_assoc_approx;
      ] );
  ]
