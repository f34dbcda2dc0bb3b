(** Statistically-critical path reporting.

    Deterministic STA reports one critical path; under variation each path
    is critical only with some probability, so a useful report ranks paths
    by their probability of dominating.  The tracer walks backward from an
    endpoint choosing, at every vertex, the fanin arc with the highest
    tightness against the vertex's arrival - the maximum-likelihood critical
    path - and can enumerate the top-k paths per endpoint by exploring the
    runner-up arcs. *)

module Form = Ssta_canonical.Form
module Form_buf = Ssta_canonical.Form_buf
module Tgraph = Ssta_timing.Tgraph

type path = {
  vertices : int list;  (** input ... output, in order *)
  edges : int list;  (** edge indices along the path *)
  delay : Form.t;  (** canonical sum of the edge delays *)
  criticality : float;
      (** tightness of this path's delay against the endpoint arrival -
          the probability the path sets the endpoint's timing *)
}

type index
(** Per-vertex memo over one arrival state, filled lazily and held
    entirely in scratch the index owns: each visited vertex's
    maximum-likelihood fanin edge (one {!Form_buf.tightness} of
    [arrival(src) + delay], summed in a scratch slot, against the
    vertex's arrival slot, per fanin arc) and the left-fold sum of the
    edge forms along its ML chain, kept in a slab of slots handed out on
    first use.  Arrivals are read in place from the workspace's slots and
    reach mask; nothing is boxed but the paths a query returns.  The memo
    makes a {!trace} O(depth) after its first visit and a {!top_paths}
    O(depth) per candidate plus O(depth * dims) flops for its delay.

    Lifetime: an index reads [arrival] and [forms] lazily, so they must
    not change while its memo is in use; after a re-propagation or an
    edit of [forms], {!reset} it (or build a new one).  One index serves
    every endpoint of the same arrival state, and sharing it is what
    amortizes the memo.  Not safe for concurrent use. *)

val index :
  Tgraph.t -> forms:Form_buf.t -> arrival:Propagate.workspace -> index
(** An empty index over the arrival state [arrival] holds (a completed
    {!Propagate.forward_into} of [g] over [forms], or one sweep that
    reached nothing).  Sizes O(V) ints; the form slabs grow with the
    vertices and candidates queries visit and are kept across {!reset}. *)

val reset : index -> unit
(** Forget the memo, keeping the scratch: the next query re-reads the
    arrival state and [forms] as they are now.  O(vertices visited since
    the last reset). *)

val trace : index -> endpoint:int -> path option
(** Maximum-likelihood critical path into [endpoint]: walking backward,
    at every vertex the fanin arc whose [arrival(src) + delay] is
    tightest against the vertex's arrival (the first on ties).  [None] if
    the endpoint is unreachable or its chain dead-ends at a reached
    vertex with no reached fanin. *)

val top_paths : index -> endpoint:int -> k:int -> path list
(** Up to [k] distinct paths into [endpoint], ordered by decreasing
    criticality (stable on ties, the best path last among equals).
    Candidates are the ML path plus, at each vertex of it, one deviation
    per alternate reached fanin arc completed upstream by that arc's ML
    chain.  This greedy set is exact for trees and a good heuristic on
    reconvergent logic.  Each delay is the left fold of its edge forms
    from the input side, so the report is independent of the memo.
    Candidates are folded and ranked in the index's slabs; only the [k]
    returned are boxed. *)

val report :
  Tgraph.t -> forms:Form_buf.t -> k:int -> Format.formatter -> unit
(** Print the top-k paths of the design's worst endpoint. *)
