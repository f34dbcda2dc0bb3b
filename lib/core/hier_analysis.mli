(** Design-level hierarchical SSTA (paper Section V, Fig. 5): stitch the
    pre-characterized instance models into one design-level timing graph,
    rewrite every model form over the design basis (by independent-variable
    replacement, or keeping only global correlation for the paper's
    baseline), and propagate arrival times from design PIs to design POs.

    Also provides the flattened-netlist projection used by the Monte Carlo
    reference (the paper's golden comparison for Fig. 7). *)

module Form = Ssta_canonical.Form
module Form_buf = Ssta_canonical.Form_buf
module Tgraph = Ssta_timing.Tgraph

type result = {
  graph : Tgraph.t;  (** the stitched design-level graph *)
  forms : Form_buf.t;
      (** the design-level edge forms, one slot per edge of [graph] in its
          edge order: every instance edge rewritten over the design basis
          (written by the replacement kernel straight into this slab),
          every interconnect edge the zero form.  Never boxed on the
          analysis path; {!Extract.extract_design} boxes it. *)
  po_delays : Form.t option array;
      (** per design PO, in [graph.outputs] order; [None] where no design
          input reaches it.  These and [delay] are the only boxed forms
          an analysis builds. *)
  delay : Form.t;
      (** design delay: the statistical max (paper eqs. (7)-(9)) of the
          reached [po_delays], folded left in output order, the
          accumulator first (see {!Propagate.ws_max_over}) *)
  setup_seconds : float;
      (** one-time design-load cost: stitching + variable replacement *)
  propagate_seconds : float;
      (** per-analysis cost: the design-level arrival propagation (what the
          paper's speedup-vs-Monte-Carlo comparison is about) *)
  wall_seconds : float;  (** setup + propagation *)
}

val analyze : Floorplan.t -> Design_grid.t -> mode:Replace.mode -> result
(** Stitches the instance graphs into [graph], writes each instance's
    replaced edge forms into the [forms] slab (replacement matrices in the
    calling domain, the slot kernel as one {!Ssta_par.Par} region over
    disjoint slots), sweeps the slab and boxes only the outputs.

    Raises {!Ssta_robust.Robust.Error} (subsystem ["hier_analysis"],
    operation ["analyze"]) if no design output is reachable from a design
    input. *)

val flatten :
  Floorplan.t -> Design_grid.t -> Ssta_mc.Sampler.ctx
(** The flattened design at gate level: instance timing graphs plus
    zero-delay interconnect edges, with every gate's correlation tile mapped
    into the design grid.  Feed to {!Ssta_mc.Flat_mc.run} for the golden
    Monte Carlo distribution. *)

val flat_form :
  Floorplan.t -> Design_grid.t -> Form.t
(** Canonical SSTA on the flattened design over the design basis (no model
    extraction involved) - the "flat SSTA" reference separating model
    compression error from hierarchical propagation error.  Like
    {!analyze}, it sweeps one edge slab and boxes only the design delay, and
    raises the same error (operation ["flat_form"]) if no design output
    is reachable. *)
