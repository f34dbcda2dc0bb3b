(** The canonical-form arithmetic of the paper, over slab slots.

    A {!t} stores [n] canonical forms (see {!Form}) in one flat unboxed
    float64 bigarray ([Bigarray.Array1], c_layout) with the strided slot
    layout

    {v mean | globals[n_globals] | pcs[n_pcs] | rand v}

    and this module is the one implementation of the operations the SSTA
    sweeps, reductions and path reports apply to them, allocating no
    intermediate [Form.t], [globals] or [pcs] array:

    - statistical sum (paper Section II): means and linear coefficients
      add, the two private random parts merge into one,
      [rand = sqrt (ra^2 + rb^2)];
    - tightness (eq. (6)): [tp = P(a >= b) = Phi ((mu_a - mu_b) / theta)]
      with [theta^2 = Var a + Var b - 2 Cov(a, b)] (Clark);
    - statistical max (eqs. (7)-(9)): the mean and variance are Clark's
      exact moments, the linear coefficients are blended
      [tp * a + (1 - tp) * b], and the random coefficient makes up the
      variance the blend misses, [sqrt (max 0 (Var_clark - Var_linear))];
      at [tp >= 1] (resp. [<= 0]) the max is [a] (resp. [b]) unchanged.

    Moments accumulate in one fixed order (globals, then PCs, then the
    random part), so every fused kernel below is bit-identical to the
    plain probes, not merely close.  The boxed per-operation reference
    these kernels are checked against, bit for bit, is
    [test/sweep_oracle.ml].

    The bigarray backing stores the floats outside the OCaml heap: large
    sweeps no longer contribute to GC scanning, and buffers can be carved
    out of a shared {!slab} so one pool worker reuses a single allocation
    across an entire scenario batch. *)

type t

type data = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
(** The unboxed float64 storage every buffer (and raw slab row) is a view
    of; exposed concretely so callers' [unsafe_get]/[unsafe_set] compile to
    direct float loads and stores. *)

(** {1 Slab allocation}

    A {!slab} is a bump allocator over one contiguous float64 chunk.
    {!create} with [~slab] carves the buffer off the slab's cursor instead
    of allocating; a slab is carved once and never rewound.  Carving past
    the end replaces the chunk with a larger one (raising
    {!slab_peak_bytes}) - earlier buffers keep their views of the old
    chunk, so overflow is safe, but callers size the slab up front with
    {!floats_needed} so it never grows. *)

type slab

val slab_create : int -> slab
(** [slab_create floats] is an empty slab whose chunk holds [floats]
    float64 values (at least 1). *)

val floats_needed : Form.dims -> int -> int
(** Slab floats consumed by [create ~slab dims n]; sum these over every
    buffer a worker carves to capacity-plan its slab. *)

val slab_peak_bytes : slab -> int
(** High-water chunk size in bytes across the slab's lifetime (the resident
    cost of the slab when capacity planning is right). *)

val slab_floats : slab -> int -> data
(** Carve a raw zero-filled row of [n] floats (at least 1) from the slab's
    cursor — the criticality screen keeps its retained scalar rows and
    covariance tables on the same capacity-planned slab as the tile's
    backward workspaces.  Same growth semantics as {!create}. *)

val create : ?slab:slab -> Form.dims -> int -> t
(** [create dims n] is a buffer of [n] zero forms of dimension [dims],
    freshly allocated, or carved from [slab] when given. *)

val length : t -> int
val dims : t -> Form.dims

val stride : t -> int
(** Floats per slot: [n_globals + n_pcs + 2]. *)

val clear_slot : t -> int -> unit
(** Reset one slot to the zero form. *)

val set : t -> int -> Form.t -> unit
val get : t -> int -> Form.t
(** [get] allocates a fresh [Form.t]; it is meant for result extraction and
    tests, not for hot loops. *)

val copy : t -> t
(** A freshly allocated buffer holding the same slots. *)

val blit : t -> int -> t -> int -> unit
(** [blit src i dst j] copies slot [i] of [src] over slot [j] of [dst].
    The buffers must have equal dims. *)

(** {1 Basis replacement} *)

(** How a module-basis PC block maps onto the design basis of the
    destination buffer (paper eq. (19)). *)
type pc_map =
  | Substitute of Ssta_linalg.Mat.t
      (** the replacement matrix M (module tiles x design tiles): the
          block x becomes M{^T}x *)
  | Place of { offset : int; tiles : int }
      (** the block of [tiles] coefficients goes to design slots
          [offset .. offset + tiles - 1], every other slot is zero *)

val replace_into :
  map:pc_map -> src:t -> isrc:int -> dst:t -> idst:int -> unit
(** Slot [idst] of [dst] becomes slot [isrc] of [src], a form over a
    module basis with the same process parameters, rewritten over [dst]'s
    basis: mean, globals and random coefficient are copied and each
    parameter's PC block goes through [map].  Under [Substitute m] every
    output entry is accumulated exactly like {!Ssta_linalg.Mat.tmul_vec}:
    from 0.0, adding [x_i * M_ij] for every non-zero [x_i] in ascending
    [i], so the slot is bit-identical to the boxed per-block product.
    Allocates nothing; concurrent calls on disjoint slots of one buffer are
    safe.  Raises [Invalid_argument] when the shapes disagree. *)

(** {1 Scalar probes} — read straight out of the flat buffer. *)

val mean : t -> int -> float
val rand_coeff : t -> int -> float
val variance : t -> int -> float
val std : t -> int -> float

val covariance : t -> int -> t -> int -> float
(** [covariance a i b j] is [Form.covariance] of slot [i] of [a] and slot
    [j] of [b]; the two buffers must have equal dims (they may be the same
    buffer). *)

val tightness : t -> int -> t -> int -> float
(** [tightness a i b j] is P(a.(i) >= b.(j)), paper eq. (6): Clark's
    tightness over {!variance} and {!covariance} of the two slots, as
    {!Ssta_gauss.Normal.clark_max} computes it.  Allocates nothing: it
    runs in [a]'s Clark scratch, so like the in-place kernels it is not
    safe concurrently with another kernel using the same [a] buffer
    ([b] is only read). *)

(** {1 Validation} *)

val sanitize : subsystem:string -> operation:string -> t -> t
(** Validated boundary of the robust layer.  Scans every slot for
    non-finite coefficients and for statistically degenerate arcs
    (positive mean with exactly zero variance; mean-0 interconnect
    constants are exempt).  Under [Strict] the first offense raises
    [Ssta_robust.Robust.Error] with [subsystem]/[operation] context, the
    slot index and its [[mean; rand]] (just [[mean]] for a zero-variance
    arc); under [Repair]/[Warn] non-finite coefficients are zeroed into a
    lazily-made copy (counted in [robust.nan_sanitized]) and zero-variance
    arcs are kept but counted ([robust.zero_variance_arcs]).  A clean
    buffer is returned physically unchanged. *)

(** {1 In-place kernels}

    Integer arguments are labelled slot indices; [dst]/[acc] slots are
    written, all others only read.  Unless stated otherwise, [dst] may alias
    one of the operand slots. *)

val scale_into : alpha:float -> a:t -> ia:int -> dst:t -> idst:int -> unit
(** Slot [idst] of [dst] becomes [Form.scale alpha a.(ia)] (the random
    coefficient through [abs_float alpha], like the pure op). *)

val recompose_into :
  mean:float -> beta:float -> a:t -> ia:int -> dst:t -> idst:int -> unit
(** Slot [idst] of [dst] gets mean [mean], the deterministic coefficients
    of [a.(ia)] scaled by [beta], and the random coefficient scaled by
    [abs_float beta].  The batch engine's scenario transform: the mean is
    supplied by the corner / delay-scale model while the sensitivity shape
    is the base edge's, scaled.  With [mean = beta *. Form_buf.mean a ia]
    this is bit-identical to {!scale_into}. *)

val add_into : a:t -> ia:int -> b:t -> ib:int -> dst:t -> idst:int -> unit
(** Slot [idst] of [dst] becomes the statistical sum [a.(ia) + b.(ib)]:
    means and linear coefficients add, [rand = sqrt (ra^2 + rb^2)].  The
    buffers may differ (equal dims); [dst] may alias either operand. *)

val max2_into : a:t -> ia:int -> b:t -> ib:int -> dst:t -> idst:int -> unit
(** Slot [idst] of [dst] becomes the statistical max of [a.(ia)] and
    [b.(ib)], paper eqs. (7)-(9) (see the module header); a tie (constant
    difference, equal means) yields [a].  The buffers may differ (equal
    dims); [dst] may alias either operand. *)

val add_then_max_into : acc:t -> iacc:int -> a:t -> ia:int -> b:t -> ib:int -> unit
(** The fused inner op of canonical propagation: slot [iacc] of [acc]
    becomes the max of itself and the sum [a.(ia) + b.(ib)], exactly as
    {!add_into} into a scratch slot then {!max2_into} with [acc] first,
    without materializing the intermediate sum.  The [acc] slot must not
    alias the [a] slot (in a DAG sweep it never does: [src <> dst] for
    every edge). *)

(** {1 Per-visit covariance gathers}

    The criticality screen's exact tightness evaluation needs the
    variances, random coefficients and eight pairwise covariances of four
    slots A (arrival), E (edge delay), R (required) and M (pair maximum).
    The screen keeps the visit-invariant ones in per-tile rows and tables
    (variances and random coefficients per vertex and edge, Cov(A,E) per
    input cone via {!cov_src_cone_into}, Cov(E,R) per output via
    {!cov_dst_into}), leaving Cov(A,R), Cov(E,M), Cov(A,M) and Cov(R,M)
    per visit, gathered by {!cov4_batch_into}.  Every value is
    bit-identical to the corresponding {!covariance} probe (same segmented
    accumulation); all kernels write into caller scratch and allocate
    nothing. *)

val cov4_ar : int
val cov4_em : int
val cov4_am : int
val cov4_rm : int

val cov4_size : int
(** Scratch floats per lane of {!cov4_batch_into} (= 4). *)

val cov4_lanes : int
(** Lane count of {!cov4_batch_into} (= 4). *)

val cov4_batch_into :
  a:t ->
  e:t ->
  r:t ->
  m:t ->
  im:int ->
  srcs:int array ->
  dsts:int array ->
  edges:int array ->
  into:data ->
  unit
(** The four per-visit covariances of four independent evaluations at
    once, sharing the [m] slot: lane [j] (indices [srcs.(j)], [edges.(j)],
    [dsts.(j)]) writes
    [into.{j * cov4_size + cov4_ar} = Cov(a.(srcs.(j)), r.(dsts.(j)))],
    [into.{j * cov4_size + cov4_em} = Cov(e.(edges.(j)), m.(im))],
    [into.{j * cov4_size + cov4_am} = Cov(a.(srcs.(j)), m.(im))] and
    [into.{j * cov4_size + cov4_rm} = Cov(r.(dsts.(j)), m.(im))], each
    value bit-identical to the {!covariance} probe.  The kernel is C
    (lib/canonical/cov4_stubs.c), vectorised across the four lanes: each
    dot stays one serial chain in [k], so sixteen chains are in flight,
    and the file is compiled without FP contraction or fast-math so no
    rounding differs from the OCaml probe.  Fewer pending evaluations run
    with the spare lanes copying lane 0.

    Raises [Invalid_argument] unless all four buffers share one [dims],
    [srcs], [dsts] and [edges] hold at least {!cov4_lanes} entries, [into]
    holds at least [cov4_lanes * cov4_size] floats, and [im] and the
    first {!cov4_lanes} entries of each lane array are slots of their
    buffers. *)

val cov_src_cone_into :
  verts:t ->
  forms:t ->
  src:int array ->
  cone:int array ->
  len:int ->
  into:data ->
  unit
(** For each edge [e = cone.(x)], [x < len]:
    [into.{e} <- covariance verts src.(e) forms e] — the per-input
    Cov(arrival at source, edge delay) table, filled once per forward
    sweep over the input's active cone.  [into] is indexed by edge (length
    >= the edge count), so a walk over any slice of the cone reads it by
    edge. *)

val cov_dst_into :
  forms:t -> verts:t -> dst:int array -> mask:Bytes.t -> into:data -> unit
(** For each edge [e] with [mask.(dst.(e)) <> 0]:
    [into.{e} <- covariance forms e verts dst.(e)] — the per-output
    Cov(edge delay, required time at sink) table, filled once per backward
    sweep over the output's reach mask.  Entries of unmasked sinks are left
    untouched (the screen never reads them: its own visit guard is the same
    mask). *)
