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
(** Per-vertex memo over one arrival state, filled lazily: each visited
    vertex's arrival (fetched once), its maximum-likelihood fanin edge
    (one {!Form_buf.tightness} of [arrival(src) + delay] per fanin arc),
    and the left-fold sum of the edge forms along its ML chain.  Building
    one is O(V) words; the memo then makes a {!trace} O(depth) after its
    first visit and a {!top_paths} O(depth) per candidate plus
    O(depth * dims) flops for its delay.

    Lifetime: an index reads [arrival] lazily, so the arrival state it
    was built over (and [forms]) must not change while it is in use;
    build a new one after any re-propagation.  One index serves every
    endpoint of the same arrival state, and sharing it is what amortizes
    the memo.  Not safe for concurrent use. *)

val index :
  Tgraph.t -> forms:Form_buf.t -> arrival:(int -> Form.t option) -> index
(** [arrival v] is [v]'s arrival form, [None] where unreached; it is
    called at most once per vertex, and only for vertices a query
    visits. *)

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
    from the input side, so the report is independent of the memo. *)

val report :
  Tgraph.t -> forms:Form_buf.t -> k:int -> Format.formatter -> unit
(** Print the top-k paths of the design's worst endpoint. *)
