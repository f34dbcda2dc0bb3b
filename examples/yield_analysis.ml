(* Yield analysis: what SSTA is for.  Compares two adder architectures of
   the same function under process variation and reports the clock period
   each needs at several yield targets - including the crossover where the
   nominally-faster design is not the statistically-safer one.

   Run with:  dune exec examples/yield_analysis.exe *)

module H = Hier_ssta
module Form = Ssta_canonical.Form
module Build = Ssta_timing.Build

let analyze name netlist =
  let b = Build.characterize netlist in
  let nominal =
    Ssta_timing.Sta.design_delay b.Build.graph
      ~weights:(Build.nominal_weights b)
  in
  let delay =
    match H.Propagate.circuit_delay b.Build.graph ~forms:b.Build.forms with
    | Some f -> f
    | None -> failwith "unreachable outputs"
  in
  Printf.printf "%-24s %5d gates  nominal %8.1f ps  ssta %8.1f +/- %.1f ps\n"
    name
    (Ssta_circuit.Netlist.n_gates netlist)
    nominal delay.Form.mean (Form.std delay);
  delay

let () =
  let bits = 32 in
  let ripple = analyze "ripple-carry" (Ssta_circuit.Adder.ripple ~bits ()) in
  let csel =
    analyze "carry-select (8b blocks)"
      (Ssta_circuit.Adder.carry_select ~bits ~block:8 ())
  in
  Printf.printf "\n%-8s %16s %16s\n" "yield" "ripple clock" "carry-select clock";
  List.iter
    (fun y ->
      Printf.printf "%6.2f%% %14.1f ps %16.1f ps\n" (100.0 *. y)
        (H.Yield.clock_for_yield ripple ~yield:y)
        (H.Yield.clock_for_yield csel ~yield:y))
    [ 0.5; 0.9; 0.99; 0.999; 0.9999 ];
  (* Where the distributions place the 3-sigma guard band. *)
  let guard f = H.Yield.clock_for_yield f ~yield:0.9987 -. f.Form.mean in
  Printf.printf "\n3-sigma guard band: ripple %.1f ps, carry-select %.1f ps\n"
    (guard ripple) (guard csel);
  Printf.printf "correlation-aware margin is what the paper's hierarchical\n";
  Printf.printf "flow preserves when these blocks become IP macros.\n"
