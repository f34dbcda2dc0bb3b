(* Tests for the Monte Carlo engines: the golden reference every SSTA result
   in the paper is validated against. *)

module Sampler = Ssta_mc.Sampler
module Flat_mc = Ssta_mc.Flat_mc
module Allpairs_mc = Ssta_mc.Allpairs_mc
module Build = Ssta_timing.Build
module Tgraph = Ssta_timing.Tgraph
module Sta = Ssta_timing.Sta
module Form = Ssta_canonical.Form
module Stats = Ssta_gauss.Stats
module Rng = Ssta_gauss.Rng

let close ?(tol = 1e-9) msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

let small_build () = Build.characterize (Ssta_circuit.Adder.ripple ~bits:4 ())

let test_sampler_field_moments () =
  let b = small_build () in
  let rng = Rng.create ~seed:31 in
  let acc = Stats.Welford.create () in
  for _ = 1 to 5_000 do
    let s = Sampler.draw b.Build.basis rng in
    Array.iter (fun f -> Stats.Welford.add acc f.(0)) s.Sampler.fields
  done;
  close ~tol:0.05 "field mean" 0.0 (Stats.Welford.mean acc);
  close ~tol:0.05 "field std" 1.0 (Stats.Welford.std acc)

let test_flat_mc_determinism () =
  let b = small_build () in
  let ctx = Sampler.ctx_of_build b in
  let r1 = Flat_mc.run ~iterations:50 ~seed:5 ctx in
  let r2 = Flat_mc.run ~iterations:50 ~seed:5 ctx in
  Alcotest.(check (array (float 1e-12)))
    "same seed, same delays" r1.Flat_mc.delays r2.Flat_mc.delays;
  let r3 = Flat_mc.run ~iterations:50 ~seed:6 ctx in
  Alcotest.(check bool)
    "different seed differs" true
    (r1.Flat_mc.delays <> r3.Flat_mc.delays)

let test_flat_mc_matches_ssta_moments () =
  (* Design-delay sample moments should be close to the canonical SSTA
     moments (both approximate the same truth). *)
  let b = small_build () in
  let ctx = Sampler.ctx_of_build b in
  let r = Flat_mc.run ~iterations:4_000 ~seed:11 ctx in
  match Hier_ssta.Propagate.circuit_delay b.Build.graph ~forms:b.Build.forms with
  | None -> Alcotest.fail "no output reachable"
  | Some f ->
      let mean = Stats.mean r.Flat_mc.delays in
      let std = Stats.std r.Flat_mc.delays in
      close ~tol:(0.03 *. mean) "mc mean vs ssta" mean f.Form.mean;
      close ~tol:(0.15 *. std) "mc std vs ssta" std (Form.std f)

let test_flat_mc_positive () =
  let b = small_build () in
  let ctx = Sampler.ctx_of_build b in
  let r = Flat_mc.run ~iterations:200 ~seed:3 ctx in
  Array.iter
    (fun d -> Alcotest.(check bool) "positive delay" true (d > 0.0))
    r.Flat_mc.delays

let test_allpairs_reachability () =
  let b = small_build () in
  let ctx = Sampler.ctx_of_build b in
  let r = Allpairs_mc.run ~iterations:20 ~seed:2 ctx in
  let g = b.Build.graph in
  Array.iteri
    (fun i input ->
      let reach = Tgraph.reachable_from g input in
      Array.iteri
        (fun j out ->
          Alcotest.(check bool)
            (Printf.sprintf "pair (%d,%d) reachability" i j)
            reach.(out)
            r.Allpairs_mc.reachable.(i).(j))
        g.Tgraph.outputs)
    g.Tgraph.inputs

let test_allpairs_vs_nominal () =
  (* MC pair means should sit near the nominal longest-path delays (within
     a few sigma of process spread). *)
  let b = small_build () in
  let ctx = Sampler.ctx_of_build b in
  let r = Allpairs_mc.run ~iterations:2_000 ~seed:13 ctx in
  let g = b.Build.graph in
  let weights = Build.nominal_weights b in
  let arr = Array.make (Ssta_timing.Tgraph.n_vertices g) 0.0 in
  Array.iteri
    (fun i input ->
      Sta.forward_from_into g ~weights input arr;
      Array.iteri
        (fun j out ->
          if r.Allpairs_mc.reachable.(i).(j) then begin
            let nominal = arr.(out) in
            let mc = r.Allpairs_mc.means.(i).(j) in
            if abs_float (mc -. nominal) > 0.15 *. nominal then
              Alcotest.fail
                (Printf.sprintf "pair (%d,%d): mc %g vs nominal %g" i j mc
                   nominal)
          end)
        g.Tgraph.outputs)
    g.Tgraph.inputs

let test_allpairs_unreachable_nan () =
  let b = small_build () in
  let ctx = Sampler.ctx_of_build b in
  let r = Allpairs_mc.run ~iterations:10 ~seed:1 ctx in
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j reachable ->
          if not reachable then begin
            Alcotest.(check bool)
              "mean is nan" true
              (Float.is_nan r.Allpairs_mc.means.(i).(j));
            Alcotest.(check bool)
              "std is nan" true
              (Float.is_nan r.Allpairs_mc.stds.(i).(j))
          end)
        row)
    r.Allpairs_mc.reachable

let test_mc_rejects_bad_iterations () =
  let b = small_build () in
  let ctx = Sampler.ctx_of_build b in
  Alcotest.(check bool)
    "zero iterations rejected" true
    (try
       ignore (Flat_mc.run ~iterations:0 ~seed:1 ctx);
       false
     with Invalid_argument _ -> true)

let suites =
  [
    ( "mc",
      [
        Alcotest.test_case "sampler field moments" `Slow
          test_sampler_field_moments;
        Alcotest.test_case "flat mc determinism" `Quick
          test_flat_mc_determinism;
        Alcotest.test_case "flat mc vs ssta moments" `Slow
          test_flat_mc_matches_ssta_moments;
        Alcotest.test_case "flat mc positive" `Quick test_flat_mc_positive;
        Alcotest.test_case "allpairs reachability" `Quick
          test_allpairs_reachability;
        Alcotest.test_case "allpairs vs nominal" `Slow test_allpairs_vs_nominal;
        Alcotest.test_case "allpairs nan for unconnected" `Quick
          test_allpairs_unreachable_nan;
        Alcotest.test_case "iteration validation" `Quick
          test_mc_rejects_bad_iterations;
      ] );
  ]
