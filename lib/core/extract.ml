module Build = Ssta_timing.Build
module Tgraph = Ssta_timing.Tgraph
module Obs = Ssta_obs.Obs
module Form = Ssta_canonical.Form
module Form_buf = Ssta_canonical.Form_buf

(* Delay increment per additional external sink on each output port: the
   output-driving arcs were characterized at their internal fanout with a
   12%-per-sink load slope (Cell.arc_delay), so one extra sink scales each
   final arc by slope = 0.12 / (1 + 0.12 (fanout - 1)); the increment is the
   statistical max over the port's fanin arcs (paper future work).

   The fold runs on Form_buf in-place kernels over one two-slot scratch
   row: slot 0 accumulates, slot 1 holds the next scaled arc.  The arcs
   are visited last fanin arc first (the order the model's recorded
   increments were folded in), and only the final [get] per output
   allocates. *)
let output_load_increments ~forms:fbuf (b : Build.t) =
  let g = b.Build.graph in
  let fanouts = Ssta_circuit.Netlist.fanout_counts b.Build.netlist in
  let dims = b.Build.basis.Ssta_variation.Basis.dims in
  let scratch = Form_buf.create dims 2 in
  Array.map
    (fun out ->
      let lo = g.Tgraph.fanin_lo.(out) and hi = g.Tgraph.fanin_hi.(out) in
      if hi <= lo then Form.zero dims
      else begin
        let fanout = max fanouts.(out) 1 in
        let slope = 0.12 /. (1.0 +. (0.12 *. float_of_int (fanout - 1))) in
        Form_buf.scale_into ~alpha:slope ~a:fbuf ~ia:(hi - 1) ~dst:scratch
          ~idst:0;
        for e = hi - 2 downto lo do
          Form_buf.scale_into ~alpha:slope ~a:fbuf ~ia:e ~dst:scratch ~idst:1;
          (* In-place accumulate: max2_into reads every operand coefficient
             before overwriting it, so dst = a is safe. *)
          Form_buf.max2_into ~a:scratch ~ia:0 ~b:scratch ~ib:1 ~dst:scratch
            ~idst:0
        done;
        Form_buf.get scratch 0
      end)
    g.Tgraph.outputs

(* Shared between module- and design-level extraction: criticality filter,
   merge to fixpoint, and the Table-I bookkeeping. *)
(* Each extraction phase gets its own observability span (the journal
   extension's Table-breakdown granularity): the delta criticality
   screen, the merge fixpoint, and the freeze back into a sorted graph.
   The ledger benchmark (bench/ledger) reports its extract.* layer shares
   from these spans. *)
let reduce_and_stats ?(exact = false) ~delta ~t0 g forms =
  let crit =
    Obs.with_span "extract.criticality" (fun () ->
        Criticality.compute ~exact ~delta g ~forms)
  in
  let work =
    Obs.with_span "extract.reduce" (fun () ->
        let work = Reduce.of_graph g ~forms ~keep:crit.Criticality.keep in
        Reduce.reduce work;
        work)
  in
  let graph, rforms, _inputs, _outputs =
    Obs.with_span "extract.freeze" (fun () -> Reduce.freeze work)
  in
  let removed =
    Array.fold_left
      (fun acc k -> if k then acc else acc + 1)
      0 crit.Criticality.keep
  in
  let stats =
    {
      Timing_model.original_edges = Tgraph.n_edges g;
      original_vertices = Tgraph.n_vertices g;
      model_edges = Tgraph.n_edges graph;
      model_vertices = Tgraph.n_vertices graph;
      removed_edges = removed;
      exact_evals = crit.Criticality.exact_evals;
      extraction_seconds = Unix.gettimeofday () -. t0;
    }
  in
  (crit, graph, rforms, stats)

let extract_with_criticality ?(exact = false) ?(delta = 0.05) (b : Build.t) =
  let t0 = Unix.gettimeofday () in
  let g = b.Build.graph in
  (* Validated boundary: characterized forms enter the extraction pipeline
     checked (and, under Repair/Warn, sanitized); clean arrays pass
     through physically unchanged. *)
  let in_forms =
    Form_buf.sanitize ~subsystem:"extract" ~operation:"extract" b.Build.forms
  in
  let crit, graph, forms, stats =
    reduce_and_stats ~exact ~delta ~t0 g in_forms
  in
  let output_load =
    Obs.with_span "extract.output_load" (fun () ->
        output_load_increments ~forms:in_forms b)
  in
  let model =
    {
      Timing_model.name = b.Build.netlist.Ssta_circuit.Netlist.name;
      graph;
      forms;
      basis = b.Build.basis;
      die = b.Build.placement.Ssta_circuit.Placement.die;
      delta;
      output_load;
      stats;
    }
  in
  (model, crit)

let extract ?delta b = fst (extract_with_criticality ?delta b)

let extract_design ?(delta = 0.05) ~name (fp : Floorplan.t)
    (dg : Design_grid.t) (res : Hier_analysis.result) =
  let t0 = Unix.gettimeofday () in
  let g = res.Hier_analysis.graph in
  let forms =
    Form_buf.sanitize ~subsystem:"extract" ~operation:"extract_design"
      res.Hier_analysis.forms
  in
  let _crit, graph, rforms, stats = reduce_and_stats ~delta ~t0 g forms in
  (* Each design output is an instance output port; its load increment is
     the instance's, rewritten over the design basis by the replacement
     kernel - one matrix per driving instance, built when the instance
     first drives a design output. *)
  let output_load =
    Obs.with_span "extract.output_load" (fun () ->
        let maps = Array.make (Array.length fp.Floorplan.instances) None in
        let map_of inst =
          match maps.(inst) with
          | Some m -> m
          | None ->
              let m = Replace.pc_map dg fp ~mode:Replace.Replaced ~inst in
              maps.(inst) <- Some m;
              m
        in
        let outs = fp.Floorplan.ext_outputs in
        let buf =
          Form_buf.create dg.Design_grid.basis.Ssta_variation.Basis.dims
            (Array.length outs)
        in
        Array.iteri
          (fun o { Floorplan.inst; port } ->
            let model = fp.Floorplan.instances.(inst).Floorplan.model in
            let load =
              Form_buf.create model.Timing_model.basis.Ssta_variation.Basis.dims 1
            in
            Form_buf.set load 0 model.Timing_model.output_load.(port);
            Form_buf.replace_into ~map:(map_of inst) ~src:load ~isrc:0 ~dst:buf
              ~idst:o)
          outs;
        Array.init (Array.length outs) (Form_buf.get buf))
  in
  {
    Timing_model.name;
    graph;
    forms = rforms;
    basis = dg.Design_grid.basis;
    die = fp.Floorplan.die;
    delta;
    output_load;
    stats;
  }
