(** Edge criticality with respect to input-output pairs (paper Section IV-B).

    The criticality [c_ij] of edge [e] for pair [(i, j)] is the probability
    that [e] lies on the critical path from input [i] to output [j]:
    with [d_e = a_e + d + r_e] (max delay over i->j paths through [e], paper
    eq. (15)) and [M_ij] the max i->j delay, [c_ij = P(d_e >= M_ij)] (paper
    eqs. (13)-(14)); the maximum criticality [c_m] is the max over pairs.

    Evaluating the exact tightness probability for every (edge, pair) triple
    is O(E |I| |O| dim); we avoid most of it with a conservative scalar
    screen (see DESIGN.md): since std(X+Y) <= std X + std Y, for
    mu_de < mu_M the exact P(de >= M) = Phi((mu_de - mu_M)/theta) is bounded
    above by Phi((mu_de - mu_M)/theta_max) with
    theta_max = sigma_ae + sigma_d + sigma_re + sigma_M.  Triples whose bound
    stays below the threshold are discarded with six flops; exact canonical
    evaluation only runs on survivors.

    One subtlety of the canonical framework: when {e every} i->j path runs
    through [e], [M_ij] and [d_e] are the same path delay, but the forms
    carry their (shared) private random parts as if independent, which would
    collapse the tightness to 1/2.  Such pairs are detected by statistical
    identity (same mean, same linear part, no extra variance in [M]) and
    reported with criticality 1, matching the definition [P(de >= de) = 1]
    and the paper's Fig. 6 spike at criticality 1.  Edges that are dominant
    but not identical (true tightness between roughly 0.7 and 1) remain
    somewhat underestimated for the same reason; such edges are still far
    above any removal threshold, and the end-to-end extraction accuracy
    tests bound the effect. *)

module Form_buf = Ssta_canonical.Form_buf
module Tgraph = Ssta_timing.Tgraph

type result = {
  keep : bool array;  (** per edge: some pair has criticality >= delta *)
  cm : float array;
      (** per edge: exact maximum criticality when [exact] was requested,
          otherwise a lower bound that is correct on the keep/remove side of
          [delta] (kept edges carry a witness >= delta, removed edges their
          best evaluated value, 0 if screened out) *)
  exact_evals : int;  (** number of full tightness evaluations performed *)
  screened_pairs : int;
      (** number of (edge, pair) visits the scalar screen disposed of
          without a full evaluation; visits on already-settled edges are
          skipped outright and counted nowhere *)
}

(** {1 Tile selection}

    The backward tile size is the [?tile] argument of {!compute} when one
    is passed (tests do, to pin tile invariance), otherwise the
    {!auto_tile} heuristic over the [CRIT_TILE_BUDGET_MB] byte budget
    (default 256 MB), read on every call.  An invalid budget value prints
    one stderr warning and falls back to the default.  A tile >= the
    output count reproduces the untiled screen. *)

val budget_mb_of_string : string -> int option
(** The pure parser behind [CRIT_TILE_BUDGET_MB]: a positive integer in
    megabytes (surrounding whitespace ignored), [None] otherwise. *)

val auto_tile :
  ?budget_mb:int -> n_vertices:int -> n_edges:int -> stride:int -> unit -> int
(** The budget-driven tile heuristic: the largest number of retained
    backward output slots that fit in [budget_mb] megabytes (default: the
    [CRIT_TILE_BUDGET_MB] environment variable, else 256), floored at 1.
    One output slot costs
    [n_vertices * (8 * stride + 34) + 8 * n_edges] bytes: the backward
    [Form_buf] workspace ([stride] floats per vertex) and its reachability
    byte, the four required-time scalar rows (mean, sigma, variance,
    random coefficient), the destination bitmask, and the per-output
    Cov(edge delay, required) table (one float per edge). *)

val edge_block : stride:int -> int
(** Edges per block of the screen walk for forms of [stride] floats:
    about 256 KiB of edge forms, [max 1 (262144 / (8 * stride))].  A
    derived constant, not a setting; exposed so tests can build graphs
    that span several blocks. *)

val compute :
  ?exact:bool ->
  ?tile:int ->
  delta:float ->
  Tgraph.t ->
  forms:Form_buf.t ->
  result
(** [exact] (default false) makes [cm] the exact per-edge maximum
    criticality (needed for the paper's Fig. 6 histogram) at the cost of
    more exact evaluations; criticalities whose screen bound is below
    [1e-3] are reported as 0.

    The backward blocks and the chunked per-input screening run as
    {!Ssta_par.Par} regions over a chunk layout that depends on the port
    counts only.

    [tile] bounds how many retained backward output slots (workspace +
    scalar rows + covariance table, all on one capacity-planned slab) are
    resident at once: outputs are processed in ascending tiles of this
    size at the cost of one extra forward sweep per input per additional
    tile (every chunk re-derives its inputs' arrival data per tile;
    backward sweeps still run once per output).  Raises [Invalid_argument]
    if < 1.  When omitted, {!auto_tile} sizes it from the budget.
    [keep], [cm], [exact_evals] and [screened_pairs] are bit-identical at
    every tile size: each edge is visited in (output, input) order, which
    does not depend on where the tile boundaries fall.

    The backward phase runs multi-output blocks
    ({!Propagate.backward_block_into}).  Each tile is walked edge block
    by edge block ({!edge_block} edges each, in ascending order): every
    (output, input) walk of the tile visits the block's slice of the
    input's cone before the next block starts, so the block's edge forms
    stay in cache across the walks.  Survivors are evaluated from the
    retained stat rows and covariance tables plus the per-visit
    covariances of {!Ssta_canonical.Form_buf.cov4_batch_into}, four lanes
    at a time.  The test suite checks every result field and counter bit
    for bit against a naive full-scan oracle built only on the boxed
    reference sweeps and [Form] moments. *)
