(** Block-based canonical arrival-time propagation (paper Section II):
    a single PERT-like sweep over the timing graph computing, per vertex,
    the statistical maximum over fanin edges of [arrival(src) + delay].

    One engine: {!forward_into} / {!backward_block_into} propagate through
    caller-owned {!workspace}s over the {!Form_buf.t} slab of edge forms,
    allocating nothing per call — criticality analysis runs one forward
    sweep per input and one backward sweep per output on the same graph.
    Callers box only the vertices they read, through {!ws_form}; the
    per-operation boxed sweep the kernels are checked against lives in
    [test/sweep_oracle.ml]. *)

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

val ws_load : workspace -> dims:Form.dims -> Form.t option array -> unit
(** Make the workspace hold the given arrival state, as if a sweep had
    left it: vertex [v]'s slot is [arrival.(v)] where it is [Some],
    unreached where [None] - the inverse of {!ws_form} over every vertex,
    for callers (tests) that hold a boxed arrival state. *)

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
    exclusive arrival times of paper eq. (15)). *)

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

val backward_block_into :
  workspace array ->
  Tgraph.t ->
  forms:Form_buf.t ->
  outs:int array ->
  lo:int ->
  hi:int ->
  unit
(** Blocked multi-output backward propagation: for each [k] in [lo, hi),
    workspace [wss.(k)] ends up holding, per vertex, the canonical maximum
    path delay from the vertex to output [outs.(k)] - the negated required
    time with required time 0 at the output (paper eq. (15)'s [r_e]).
    All sweeps of the block advance through {e one} pass over the reversed
    topological edge order, amortizing the edge-table traversal across the
    block; every workspace is bit-identical to a block of one.  The
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

val stat_mu : int
val stat_sigma : int
val stat_var : int
val stat_rand : int

val stat_stride : int
(** Layout of {!scalar_stats_into}: vertex [v]'s statistic [stat_x] lives
    at [into.{stat_stride * v + stat_x}] (= 4 floats per vertex). *)

val scalar_stats_into : workspace -> n:int -> into:Form_buf.data -> unit
(** Per-vertex mean, standard deviation, variance and random coefficient
    of the last sweep ([nan] at unreached vertices), written into one
    interleaved unboxed slab row of length >= [stat_stride * n] — the
    retained per-vertex statistics of the blocked criticality screen,
    interleaved so a visit's scattered vertex access costs one cache line
    instead of four.  [sigma] is [sqrt var]
    exactly as {!Form_buf.std} computes it, so every row value is
    bit-identical to the corresponding probe. *)

val ws_max_over : workspace -> int array -> Form.t option
(** Statistical max (paper eqs. (7)-(9)) of the last sweep's forms at the
    reached vertices among the given ones: a left fold in array order,
    the accumulator always the first operand, [None] if none is reached -
    e.g. the circuit delay as the max over the outputs' arrivals.  The
    fold runs in a workspace scratch slot ({!Form_buf.max2_into}) and only
    the result is boxed. *)

val ws_worst : workspace -> int array -> int option
(** The reached vertex among the given ones with the greatest mean in the
    last sweep, the first on ties; [None] if none is reached. *)

val io_delays :
  pool:workspace Ssta_par.Par.pool ->
  Tgraph.t ->
  forms:Form_buf.t ->
  Form.t option array array
(** The IO delay matrix: [(io_delays ~pool g ~forms).(i).(j)] is the
    arrival at output [j] of a {!forward_into} sweep from input [i] alone,
    [None] where unreachable.  One {!Ssta_par.Par} task per input; each
    worker sweeps a workspace drawn from [pool], so a caller that keeps
    the pool across calls builds at most one workspace per domain in all.
    The rows come back in input order at every domain count, whatever the
    workspaces held before. *)

val circuit_delay : Tgraph.t -> forms:Form_buf.t -> Form.t option
(** Sweep the edge slab from every input and take {!ws_max_over} the
    outputs: block-based SSTA's circuit delay. *)

val forward :
  Tgraph.t -> forms:Form_buf.t -> sources:int array -> Form.t option array
(** {!forward_into} over the edge slab from [sources], every vertex boxed
    ([None] where unreachable).  Kept only for the frozen benchmark ledger
    ([bench/ledger/w_extract.ml]); new code sweeps a workspace. *)

val max_over : Form.t option array -> int array -> Form.t option
(** The fold of {!ws_max_over} over the given vertices of a boxed arrival
    array, through a scratch slab.  Kept only for the frozen benchmark
    ledger, like {!forward}. *)
