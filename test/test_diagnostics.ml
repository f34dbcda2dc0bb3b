(* Tests for Diagnostics.budget: variance decomposition of a canonical
   form into global / correlated-local / random contributions. *)

module H = Hier_ssta
module Form = Ssta_canonical.Form
module D = H.Diagnostics

let close ?(tol = 1e-12) msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

let form ~globals ~pcs ~rand = Form.make ~mean:100.0 ~globals ~pcs ~rand

let test_hand_computed_budget () =
  (* 2 parameters, 2 PCs each: every contribution is checkable by hand. *)
  let f =
    form ~globals:[| 3.0; 4.0 |] ~pcs:[| 1.0; 2.0; 0.0; 2.0 |] ~rand:5.0
  in
  let b = D.budget ~n_params:2 f in
  close "total variance" (9.0 +. 16.0 +. 5.0 +. 4.0 +. 25.0) b.D.total_variance;
  close "global p0" 9.0 b.D.global_per_param.(0);
  close "global p1" 16.0 b.D.global_per_param.(1);
  close "local p0" 5.0 b.D.local_per_param.(0);
  close "local p1" 4.0 b.D.local_per_param.(1);
  close "random" 25.0 b.D.random

let test_fractions_sum_to_one () =
  let f =
    form ~globals:[| 0.5; -1.5 |] ~pcs:[| 0.25; -0.75; 1.0; 0.125 |] ~rand:2.0
  in
  let b = D.budget ~n_params:2 f in
  close ~tol:1e-12 "fractions partition the variance" 1.0
    (D.fraction_global b +. D.fraction_local b +. D.fraction_random b)

let test_zero_variance_form () =
  (* A constant form: all fractions must be 0 (not NaN) by the documented
     <= 0 guard, and the budget itself is all zeros. *)
  let f = form ~globals:[| 0.0 |] ~pcs:[| 0.0; 0.0 |] ~rand:0.0 in
  let b = D.budget ~n_params:1 f in
  close "zero total" 0.0 b.D.total_variance;
  close "zero global fraction" 0.0 (D.fraction_global b);
  close "zero local fraction" 0.0 (D.fraction_local b);
  close "zero random fraction" 0.0 (D.fraction_random b)

let test_invalid_dimensions () =
  let raises msg f =
    Alcotest.(check bool)
      msg true
      (try
         ignore (f ());
         false
       with Invalid_argument _ -> true)
  in
  (* 3 PCs cannot split across 2 parameters. *)
  let f = form ~globals:[| 1.0; 1.0 |] ~pcs:[| 1.0; 1.0; 1.0 |] ~rand:0.0 in
  raises "PC dimension not a parameter multiple" (fun () ->
      D.budget ~n_params:2 f);
  (* Global coefficient count must equal n_params. *)
  let g = form ~globals:[| 1.0 |] ~pcs:[| 1.0; 1.0 |] ~rand:0.0 in
  raises "global count mismatch" (fun () -> D.budget ~n_params:2 g);
  (* n_params = 0 is rejected rather than dividing by zero. *)
  let z = form ~globals:[||] ~pcs:[||] ~rand:1.0 in
  raises "zero parameters rejected" (fun () -> D.budget ~n_params:0 z)

let test_budget_of_real_extraction () =
  (* On a real characterized edge the decomposition must both partition
     the variance and report strictly positive global and local parts. *)
  let b =
    Ssta_timing.Build.characterize (Ssta_circuit.Multiplier.make ~bits:4 ())
  in
  let n_params = Array.length Ssta_cell.Library.params in
  let f = Ssta_canonical.Form_buf.get b.Ssta_timing.Build.forms 0 in
  let bd = D.budget ~n_params f in
  close ~tol:1e-9 "total = Form.variance" (Form.variance f)
    bd.D.total_variance;
  close ~tol:1e-12 "fractions sum" 1.0
    (D.fraction_global bd +. D.fraction_local bd +. D.fraction_random bd);
  Alcotest.(check bool) "global part positive" true
    (D.fraction_global bd > 0.0);
  Alcotest.(check bool) "local part positive" true (D.fraction_local bd > 0.0)

let suites =
  [
    ( "diagnostics.budget",
      [
        Alcotest.test_case "hand-computed example" `Quick
          test_hand_computed_budget;
        Alcotest.test_case "fractions sum to 1" `Quick
          test_fractions_sum_to_one;
        Alcotest.test_case "zero-variance form" `Quick test_zero_variance_form;
        Alcotest.test_case "invalid dimensions" `Quick test_invalid_dimensions;
        Alcotest.test_case "real extraction budget" `Quick
          test_budget_of_real_extraction;
      ] );
  ]
