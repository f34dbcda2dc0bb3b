(** Characterization context: everything needed to analyze one combinational
    module statistically - the timing graph, per-edge canonical forms over
    the module's variation basis, and the sparse per-edge description the
    Monte Carlo engine samples from. *)

module Form_buf = Ssta_canonical.Form_buf

type sparse_edge = {
  nominal : float;  (** nominal arc delay, load/pin factors applied *)
  sens : float array;  (** per-parameter relative sensitivities *)
  tile : int;  (** correlation tile of the driven gate *)
  random_sigma : float;
      (** absolute sigma of the private random part (parameter random
          components + load variation, RSS-combined) *)
}

type t = {
  netlist : Ssta_circuit.Netlist.t;
  placement : Ssta_circuit.Placement.t;
  grid : Ssta_variation.Grid.t;
  basis : Ssta_variation.Basis.t;
  graph : Tgraph.t;
  forms : Form_buf.t;
      (** per edge, canonical over [basis]: the one slab every sweep,
          screen and what-if edit reads *)
  sparse : sparse_edge array;  (** per edge *)
  gate_tile : int array;  (** per gate *)
}

val characterize :
  ?corr:Ssta_variation.Correlation.model ->
  ?cells_per_tile:int ->
  Ssta_circuit.Netlist.t ->
  t
(** Places the netlist, partitions its die with the paper's cell budget
    (default < 100 cells per grid), builds the PCA basis, and derives both
    edge representations.  The canonical form and the sparse description
    denote the same distribution - a property the tests check by sampling. *)

val nominal_weights : t -> float array
(** Per-edge nominal delays (for corner STA). *)
