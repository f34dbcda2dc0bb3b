(** Gray-box timing-graph reduction (paper Section IV-A and Fig. 3):
    starting from the original timing graph with the non-critical edges
    removed, apply the two input-output-delay-preserving merge operations to
    a fixpoint.

    - {e serial merge} (paper Fig. 1): an internal vertex with a single
      fanin edge [(u, v)] is eliminated by rerouting every fanout edge
      [(v, w)] to [(u, w)] with weight [d_uv + d_vw]; symmetrically for a
      single fanout edge.
    - {e parallel merge} (paper Fig. 2): edges sharing source and sink are
      replaced by one edge whose weight is their statistical maximum.
    - {e pruning}: internal vertices left without fanin or without fanout
      (e.g. after criticality-based edge removal) lie on no input-output
      path and are dropped with their edges.

    Port vertices (module inputs and outputs) are never merged away. *)

module Form_buf = Ssta_canonical.Form_buf
module Tgraph = Ssta_timing.Tgraph

type t
(** A mutable reduction workspace. *)

val of_graph :
  Tgraph.t -> forms:Form_buf.t -> keep:bool array -> t
(** Load the surviving edges of a timing graph.  Input/output vertices of
    the graph become protected ports.  The kept edges' forms are copied
    once into a private slab, one slot per edge, which the merges rewrite
    in place ({!Form_buf.add_into}, {!Form_buf.max2_into}); [forms] itself
    is only read here. *)

val n_live_edges : t -> int
val n_live_vertices : t -> int
(** Counts ports even if isolated (a timing model always exposes every
    port of the module). *)

val prune : t -> int
(** One dead-vertex sweep; returns the number of removed vertices. *)

val reduce : t -> unit
(** Prune, then alternate parallel and serial passes to a fixpoint. *)

val freeze :
  t -> (Tgraph.t * Form_buf.t * int array * int array)
(** Compact the workspace into an immutable timing graph:
    [(graph, edge_forms, input_vertices, output_vertices)], where the i-th
    entries of the vertex arrays correspond to the original graph's i-th
    input/output.  The graph's vertex numbering is fresh; the edge forms
    are blitted from the workspace's slab. *)
