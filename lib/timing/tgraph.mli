(** The timing graph of paper Section II: a weighted DAG whose vertices are
    primary inputs and gate outputs, and whose edges are pin-to-output delay
    arcs.  The structure is immutable and stored edge-major in topological
    order (by sink), so forward passes are a single sweep over the edge array
    and backward passes the reverse sweep.  Edge weights live outside the
    structure (parallel [float array] / [Form.t array]), so one graph serves
    deterministic STA, Monte Carlo and canonical SSTA alike. *)

type t = private {
  n_vertices : int;
  src : int array;  (** per edge, topologically sorted by sink *)
  dst : int array;
  fanin_lo : int array;
      (** per vertex: edges with sink [v] are [fanin_lo.(v) ..
          fanin_hi.(v) - 1] (empty range if no fanin); fanin edges are
          contiguous because the edge array is grouped by sink *)
  fanin_hi : int array;
  fanout : int array array;  (** per vertex, edge indices leaving it *)
  inputs : int array;
  outputs : int array;
}

val n_edges : t -> int
val n_vertices : t -> int

val make :
  n_vertices:int ->
  edges:(int * int) array ->
  inputs:int array ->
  outputs:int array ->
  t
(** [edges] as (src, dst) pairs, already topologically ordered by sink
    (checked: every edge's source must appear as some earlier edge's sink or
    have no fanin).  Raises [Failure] if the order is inconsistent or an
    index is out of range. *)

val make_sorted :
  n_vertices:int ->
  edges:(int * int) array ->
  inputs:int array ->
  outputs:int array ->
  t * int array
(** Like {!make} but accepts edges in any order: performs a Kahn topological
    sort internally and returns the permutation [perm] mapping new edge index
    to the caller's original index (so parallel weight arrays can be
    reordered with [Array.map (fun i -> w.(perm.(i)))]).  Raises [Failure] on
    a cyclic graph. *)

val of_netlist : Ssta_circuit.Netlist.t -> t
(** Gate-level timing graph: one vertex per PI and per gate, one edge per
    gate fanin.  Edge order follows gate order, hence is topological. *)

val src_cone_into : t -> reach:Bytes.t -> into:int array -> int
(** [src_cone_into t ~reach ~into] writes, in ascending edge order, the
    indices of every edge whose source vertex is marked non-zero in [reach]
    (a per-vertex byte mask of length >= [n_vertices]) into the caller-owned
    [into] (length >= [n_edges]) and returns how many were written — the
    "edge cone" of a reachability mask, built once per forward sweep and
    reused across every output by the criticality screen. *)

val fanout_closure_into : t -> seeds:int array -> into:Bytes.t -> int
(** [fanout_closure_into t ~seeds ~into] fills the per-vertex byte mask
    [into] (length >= [n_vertices]; cleared first) with the forward
    closure of the seed vertices — every vertex reachable from a seed by
    forward edges, seeds included — and returns the marked count.  One
    ascending edge pass, so it costs O(edges) integer work with no form
    operations: this is the dirty set of an ECO-style edge-delay edit
    (seed = the edited edge's sink), handed to
    [Propagate.forward_update_into] for incremental re-timing. *)

val reachable_from : t -> int -> bool array
(** Vertices reachable from a vertex by forward edges (including itself). *)

val reaches : t -> int -> bool array
(** Vertices from which a vertex is reachable (including itself). *)
