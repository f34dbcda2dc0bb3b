(** Block-based canonical arrival-time propagation (paper Section II):
    a single PERT-like sweep over the timing graph computing, per vertex,
    the statistical maximum over fanin edges of [arrival(src) + delay].

    Two tiers share one sweep implementation:

    + the allocation-free tier ({!forward_into} / {!backward_to_into})
      propagates through a caller-owned {!workspace} over a packed
      {!Form_buf.t} of edge forms, allocating nothing per call — the hot
      path of criticality analysis, which performs one forward sweep per
      input and one backward sweep per output on the same graph;
    + the pure tier ({!forward} / {!backward_to}) keeps the original
      [Form.t option array] API as a thin wrapper over the kernels (it
      packs the forms and unpacks the result, so it still allocates). *)

module Form = Ssta_canonical.Form
module Form_buf = Ssta_canonical.Form_buf
module Tgraph = Ssta_timing.Tgraph

type workspace
(** Reusable per-sweep state: one {!Form_buf.t} slot per vertex plus a
    reachability mask.  A workspace grows on demand and may be reused
    across graphs and dimensions; each sweep fully re-initializes the
    portion it reads.  After a sweep the workspace holds that sweep's
    result until the next sweep overwrites it. *)

val create_workspace : ?slab:Form_buf.slab -> unit -> workspace
(** With [~slab], the workspace's vertex buffer is carved from the slab
    whenever it (re)grows instead of being freshly allocated — the batch
    engine gives each pool worker one capacity-planned slab so every
    scenario reuses the same storage.  Size the slab so steady-state sweeps
    never regrow (each regrowth carves again, bumping the cursor). *)

val ws_buf : workspace -> Form_buf.t
(** Vertex-indexed slots of the last sweep (valid where {!ws_reached}). *)

val ws_reached : workspace -> int -> bool
(** Whether the last sweep reached the vertex (its slot is meaningful). *)

val ws_form : workspace -> int -> Form.t option
(** Allocating probe of one vertex (for result extraction and tests). *)

val ws_reach_into : workspace -> n:int -> into:Bytes.t -> unit
(** Copy the first [n] bytes of the last sweep's reachability mask into a
    caller-owned buffer (non-zero byte = reached).  The criticality screen
    snapshots each backward pass's mask this way, so its inner loop tests
    output membership with one byte load instead of a NaN-sentinel double
    load. *)

val ws_source_cone_into : workspace -> Tgraph.t -> into:int array -> int
(** Fill [into] (length >= [Tgraph.n_edges]) with the indices, ascending,
    of the edges whose source the last sweep reached, returning the count —
    {!Tgraph.src_cone_into} over the workspace's own mask.  Built once per
    forward sweep, an input's cone replaces the per-output full edge scan
    of the criticality screen. *)

val forward_into :
  workspace -> Tgraph.t -> forms:Form_buf.t -> sources:int array -> unit
(** Arrival forms with arrival 0 at every vertex of [sources], left in the
    workspace; unreachable vertices are marked unreached.  [sources] will
    usually be the graph's inputs (block-based SSTA) or one input (the
    exclusive arrival times of paper eq. (15)).  Bit-identical to
    {!forward}. *)

val forward_update_into :
  workspace ->
  Tgraph.t ->
  forms:Form_buf.t ->
  sources:int array ->
  dirty:Bytes.t ->
  int * int
(** Incremental re-timing of a prior {!forward_into} (or
    {!forward_update_into}) result held in the workspace: recompute only
    the vertices whose byte is set in [dirty], in topological order,
    reusing the stored arrival of every clean vertex.  Returns
    [(vertices recomputed, fanin edges visited)].

    The contract: the workspace holds a completed forward sweep of the
    same graph from the same [sources] over edge forms that differ from
    [forms] {e only} at edges whose sink is dirty, and [dirty] is closed
    under fanout ({!Tgraph.fanout_closure_into} of the edited edges'
    sinks).  Then the updated workspace is bit-identical to a full
    {!forward_into} over [forms] - the clean slots already hold the full
    sweep's values, and each dirty vertex is rebuilt with the identical
    fanin-range fold.  [test/test_serve.ml] pins this against full
    re-sweeps over random DAGs and edit sequences.  Cost is O(dirty
    fanin edges) form operations plus an O(vertices) mask reset - the
    [hssta serve] what-if hot path. *)

val backward_to_into :
  workspace -> Tgraph.t -> forms:Form_buf.t -> int -> unit
(** Per vertex, the canonical maximum path delay from the vertex to the
    given output, left in the workspace.  Bit-identical to
    {!backward_to}. *)

val backward_block_into :
  workspace array ->
  Tgraph.t ->
  forms:Form_buf.t ->
  outs:int array ->
  lo:int ->
  hi:int ->
  unit
(** Blocked multi-output backward propagation: for each [k] in [lo, hi),
    workspace [wss.(k)] ends up bit-identical to
    [backward_to_into wss.(k) g ~forms outs.(k)], but all sweeps of the
    block advance through {e one} pass over the reversed topological edge
    order, amortizing the edge-table traversal across the block.  The
    workspaces must be distinct.  Per-output accounting is unchanged
    ([propagate.backward_sweeps] still counts outputs); each non-empty
    block bumps [propagate.backward_blocks] once.

    Slab-backed workspaces swept in parallel blocks over one shared slab
    must be {!reserve}d sequentially first (carving races otherwise). *)

val reserve : workspace -> dims:Form.dims -> n:int -> unit
(** Pre-size the workspace for sweeps of [n] vertices at [dims] — carving
    from its slab now, outside any parallel region, so later in-region
    sweeps never regrow.  Sweeps re-prepare themselves regardless; this
    only front-loads the allocation. *)

val scalar_summaries_into :
  workspace -> n:int -> mu:float array -> sigma:float array -> unit
(** Fill [mu]/[sigma] (length >= [n]) with per-vertex mean and standard
    deviation of the last sweep, [nan] at unreached vertices. *)

val stat_mu : int
val stat_sigma : int
val stat_var : int
val stat_rand : int

val stat_stride : int
(** Layout of {!scalar_stats_into}: vertex [v]'s statistic [stat_x] lives
    at [into.{stat_stride * v + stat_x}] (= 4 floats per vertex). *)

val scalar_stats_into : workspace -> n:int -> into:Form_buf.data -> unit
(** As {!scalar_summaries_into} plus per-vertex variance and random
    coefficient, written into one interleaved unboxed slab row of length
    >= [stat_stride * n] — the retained per-vertex statistics of the
    blocked criticality screen, interleaved so a visit's scattered vertex
    access costs one cache line instead of four.  [sigma] is [sqrt var]
    exactly as {!Form_buf.std} computes it, so every row value is
    bit-identical to the corresponding probe. *)

val forward :
  Tgraph.t -> forms:Form.t array -> sources:int array -> Form.t option array
(** Arrival forms with arrival 0 at every vertex of [sources]; [None] where
    unreachable. *)

val forward_all : Tgraph.t -> forms:Form.t array -> Form.t option array
(** [forward] from all primary inputs. *)

val backward_to :
  Tgraph.t -> forms:Form.t array -> int -> Form.t option array
(** Per vertex, the canonical maximum path delay from the vertex to the
    given output - the negated required time with required time 0 at the
    output (paper eq. (15)'s [r_e]). *)

val max_over : Form.t option array -> int array -> Form.t option
(** Statistical max of the forms at the given vertices ([None] if none are
    reachable); e.g. the circuit delay as the max over outputs. *)

val scalar_summaries : Form.t option array -> float array * float array
(** Per-vertex (mean, sigma) with [nan] at unreachable vertices - the
    compact tables the criticality screening works from. *)
