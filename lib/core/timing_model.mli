(** Pre-characterized statistical timing models (paper Section III): a
    compressed timing graph with the same ports and (statistically) the same
    input-output delay matrix as the module it replaces, with every edge
    weight canonical over the module's variation basis. *)

module Form = Ssta_canonical.Form
module Form_buf = Ssta_canonical.Form_buf
module Tgraph = Ssta_timing.Tgraph

type stats = {
  original_edges : int;
  original_vertices : int;
  model_edges : int;
  model_vertices : int;
  removed_edges : int;  (** edges dropped by the criticality filter *)
  exact_evals : int;
  extraction_seconds : float;
}

type t = {
  name : string;
  graph : Tgraph.t;  (** the reduced gray-box graph *)
  forms : Form_buf.t;  (** per edge, over the module basis, one slab *)
  basis : Ssta_variation.Basis.t;
      (** module-level variation basis; its tile array is the module's
          characterization grid (regular for leaf modules, heterogeneous for
          models extracted from designs) and is what design-level partitions
          replicate *)
  die : Ssta_variation.Tile.t;
  delta : float;  (** criticality threshold used at extraction *)
  output_load : Form.t array;
      (** per output port: the canonical delay increment each {e additional}
          external sink costs (beyond the single sink the characterization
          assumed).  This implements the paper's stated future work of
          carrying output load through model extraction: the increment is
          derived from the output-driving arcs' load slope and is applied
          additively by {!Hier_analysis} - exact because every path into an
          output traverses exactly one final arc. *)
  stats : stats;
}

val n_inputs : t -> int
val n_outputs : t -> int

val io_delays : t -> Form.t option array array
(** The model's delay matrix [M_ij]: {!Propagate.io_delays} over the
    (small) model graph; [None] for unconnected pairs. *)

val compression : t -> float * float
(** [(pe, pv)] = model edges / original edges, model vertices / original
    vertices - the pe/pv columns of Table I. *)

type accuracy = {
  mean_err : float;  (** max relative error of the mean *)
  sigma_err : float;  (** max relative error of the standard deviation *)
  pairs : int;  (** IO pairs compared *)
}

val io_accuracy :
  reference:(int -> int -> (float * float) option) ->
  Form.t option array array ->
  accuracy
(** Table I's merr/verr: the largest relative errors of an IO delay matrix
    ([io.(i).(j)], e.g. from {!io_delays}) against reference
    [(mean, std)] moments, over the pairs where both sides have a value
    ([reference i j = None] marks an unreachable pair; see
    {!Ssta_mc.Allpairs_mc.pair_moments}).  A zero reference moment carries
    no timing information and is skipped for that moment. *)

val pp_stats : Format.formatter -> t -> unit
