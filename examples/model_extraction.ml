(* Model extraction walkthrough (paper Section IV): extract a gray-box
   statistical timing model from a benchmark circuit, inspect what the
   criticality filter and the merge operations each contribute, and verify
   the model's input-output delays against the original graph.

   Run with:  dune exec examples/model_extraction.exe [circuit] [delta] *)

module H = Hier_ssta
module Form = Ssta_canonical.Form
module Build = Ssta_timing.Build
module Tgraph = Ssta_timing.Tgraph

let () =
  let name = try Sys.argv.(1) with _ -> "c880" in
  let delta = try float_of_string Sys.argv.(2) with _ -> 0.05 in
  let netlist = Ssta_circuit.Iscas.build name in
  let b = Build.characterize netlist in
  Printf.printf "original timing graph: %d edges, %d vertices\n"
    (Tgraph.n_edges b.Build.graph)
    (Tgraph.n_vertices b.Build.graph);

  (* Step 1+2 of paper Fig. 3: criticality analysis and edge removal. *)
  let model, crit =
    H.Extract.extract_with_criticality ~exact:true ~delta b
  in
  let removed =
    Array.fold_left (fun k keep -> if keep then k else k + 1) 0
      crit.H.Criticality.keep
  in
  Printf.printf
    "criticality filter (delta=%.3g): %d edges removed, %d exact tightness \
     evaluations over %d screened (edge, pair) combinations\n"
    delta removed crit.H.Criticality.exact_evals
    crit.H.Criticality.screened_pairs;
  let hist =
    Ssta_gauss.Stats.histogram ~lo:0.0 ~hi:1.0 ~bins:10 crit.H.Criticality.cm
  in
  Printf.printf "criticality histogram (10 bins): ";
  Array.iter (fun c -> Printf.printf "%d " c) hist;
  print_newline ();

  (* Step 3: serial/parallel merges (already applied inside extract). *)
  let s = model.H.Timing_model.stats in
  Printf.printf
    "after merges: %d edges, %d vertices (edge removal alone left %d)\n"
    s.H.Timing_model.model_edges s.H.Timing_model.model_vertices
    (s.H.Timing_model.original_edges - removed);
  let pe, pv = H.Timing_model.compression model in
  Printf.printf "compression: pe=%.0f%% pv=%.0f%% in %.2fs\n" (100. *. pe)
    (100. *. pv) s.H.Timing_model.extraction_seconds;

  (* Validation: the model's delay matrix vs the original graph's (both by
     canonical SSTA, isolating extraction error from MC noise). *)
  let io = H.Timing_model.io_delays model in
  let g = b.Build.graph in
  let ws = H.Propagate.create_workspace () in
  let original =
    Array.map
      (fun input ->
        H.Propagate.forward_into ws g ~forms:b.Build.forms ~sources:[| input |];
        Array.map (H.Propagate.ws_form ws) g.Tgraph.outputs)
      g.Tgraph.inputs
  in
  let acc =
    H.Timing_model.io_accuracy io ~reference:(fun i j ->
        Option.map (fun f -> (f.Form.mean, Form.std f)) original.(i).(j))
  in
  Printf.printf
    "model vs original SSTA over %d IO pairs: worst mean err %.3f%%, worst \
     sigma err %.3f%%\n"
    acc.H.Timing_model.pairs
    (100. *. acc.H.Timing_model.mean_err)
    (100. *. acc.H.Timing_model.sigma_err)
