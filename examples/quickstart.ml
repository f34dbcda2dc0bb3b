(* Quickstart: build a small combinational circuit, characterize it under
   the default 90nm-like variation model, and compare corner STA, canonical
   SSTA and Monte Carlo.

   Run with:  dune exec examples/quickstart.exe *)

module H = Hier_ssta
module Form = Ssta_canonical.Form
module Build = Ssta_timing.Build
module Stats = Ssta_gauss.Stats

let () =
  (* 1. A circuit: a 16-bit ripple-carry adder from the bundled generators.
     Any topologically-ordered netlist built with Netlist.Builder works. *)
  let netlist = Ssta_circuit.Adder.ripple ~bits:16 () in
  Format.printf "circuit: %a@." Ssta_circuit.Netlist.pp_stats netlist;

  (* 2. Characterize: placement, correlation grid (< 100 cells each), PCA
     basis, and one canonical delay form per timing-graph edge. *)
  let b = Build.characterize netlist in
  Printf.printf "grid: %d tiles, PC dimension %d\n"
    (Ssta_variation.Basis.n_tiles b.Build.basis)
    b.Build.basis.Ssta_variation.Basis.dims.Form.n_pcs;

  (* 3. Corner STA: plain longest path on nominal delays. *)
  let nominal =
    Ssta_timing.Sta.design_delay b.Build.graph
      ~weights:(Build.nominal_weights b)
  in
  Printf.printf "corner STA:   %8.1f ps (nominal)\n" nominal;

  (* 4. Canonical SSTA: one block-based pass, a full distribution. *)
  let delay =
    match H.Propagate.circuit_delay b.Build.graph ~forms:b.Build.forms with
    | Some f -> f
    | None -> failwith "no output reachable"
  in
  Printf.printf "SSTA:         %8.1f ps mean, %6.1f ps sigma\n"
    delay.Form.mean (Form.std delay);
  Printf.printf "  99.9%% yield clock: %8.1f ps\n"
    (H.Yield.clock_for_yield delay ~yield:0.999);

  (* 5. Monte Carlo cross-check on the same variation model. *)
  let mc =
    Ssta_mc.Flat_mc.run ~iterations:5000 ~seed:1
      (Ssta_mc.Sampler.ctx_of_build b)
  in
  Printf.printf "Monte Carlo:  %8.1f ps mean, %6.1f ps sigma (5000 iters)\n"
    (Stats.mean mc.Ssta_mc.Flat_mc.delays)
    (Stats.std mc.Ssta_mc.Flat_mc.delays)
