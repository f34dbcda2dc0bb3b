(** Statistical timing-model extraction (paper Fig. 3):

    + compute the maximum criticality [c_m] of every edge,
    + remove edges with [c_m] below the threshold [delta],
    + apply serial and parallel merge operations to a fixpoint.

    The result preserves every input/output port and (approximately) the
    statistical input-output delay matrix while being much smaller - the
    paper reports ~80 % fewer edges on the ISCAS85 suite with
    [delta = 0.05]. *)

val extract : ?delta:float -> Ssta_timing.Build.t -> Timing_model.t
(** [delta] defaults to the paper's 0.05.  The returned model shares the
    characterization basis/grid of the build context.  The criticality
    analysis inside runs on the {!Ssta_par.Par} pool. *)

val extract_with_criticality :
  ?exact:bool ->
  ?delta:float ->
  Ssta_timing.Build.t ->
  Timing_model.t * Criticality.result
(** Also returns the criticality analysis (with exact per-edge maximum
    criticalities when [exact] - e.g. for the paper's Fig. 6 histogram). *)

val extract_design :
  ?delta:float ->
  name:string ->
  Floorplan.t ->
  Design_grid.t ->
  Hier_analysis.result ->
  Timing_model.t
(** Multi-level hierarchy: compress an analyzed {e design} into a timing
    model of its own.  The stitched design-level graph (whose forms are
    already canonical over the design basis) goes through the same
    criticality filter and merge operations as a leaf module; the design's
    heterogeneous tile partition becomes the new model's characterization
    grid, so the result can be instantiated in a yet larger design.  Output
    load increments are inherited from the instances driving each design
    output (rewritten over the design basis). *)
