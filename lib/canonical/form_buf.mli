(** Allocation-free kernels over a population of canonical forms.

    A {!t} stores [n] canonical forms (see {!Form}) in one flat unboxed
    float64 bigarray ([Bigarray.Array1], c_layout) with the strided slot
    layout

    {v mean | globals[n_globals] | pcs[n_pcs] | rand v}

    so the hot SSTA loops (forward/backward propagation, criticality
    screening, covariance probes) can run without allocating a single
    intermediate [Form.t], [globals] or [pcs] array.  Every kernel below is a
    {e bit-exact} replica of the corresponding pure {!Form} operation: the
    floating-point accumulation order (globals first, then PCs, then the
    random part) matches {!Form.variance} / {!Form.covariance} /
    {!Form.add} / {!Form.max2} term for term, so a propagation rewired onto
    these kernels reproduces the pure implementation exactly, not just to
    rounding noise.  [test/test_kernels.ml] pins that property.

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
    of allocating; {!slab_reset} rewinds the cursor so the same chunk backs
    the next scenario's buffers.  Carving past the end replaces the chunk
    with a larger one ({!slab_grows} counts these) - earlier buffers keep
    their views of the old chunk, so overflow is safe, but steady-state use
    should size the slab up front with {!floats_needed} so it never grows. *)

type slab

val slab_create : int -> slab
(** [slab_create floats] is an empty slab whose chunk holds [floats]
    float64 values (at least 1). *)

val floats_needed : Form.dims -> int -> int
(** Slab floats consumed by [create ~slab dims n]; sum these over every
    buffer a worker carves to capacity-plan its slab. *)

val slab_reset : slab -> unit
(** Rewind the cursor to 0.  Buffers carved before the reset alias storage
    that subsequent carves will reuse; callers must not touch them again. *)

val slab_used_floats : slab -> int

val slab_peak_bytes : slab -> int
(** High-water chunk size in bytes across the slab's lifetime (the resident
    cost of the slab when capacity planning is right). *)

val slab_grows : slab -> int
(** Number of times a carve overflowed and replaced the chunk (0 when the
    slab was sized correctly up front). *)

val slab_floats : slab -> int -> data
(** Carve a raw zero-filled row of [n] floats (at least 1) from the slab's
    cursor — the criticality screen keeps its retained scalar rows and
    covariance tables on the same capacity-planned slab as the tile's
    backward workspaces.  Same growth/reset semantics as {!create}. *)

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

val of_forms : Form.dims -> Form.t array -> t
(** Pack an array of forms (all of dimension [dims]) into a fresh buffer. *)

val blit : t -> int -> t -> int -> unit
(** [blit src i dst j] copies slot [i] of [src] over slot [j] of [dst].
    The buffers must have equal dims. *)

(** {1 Scalar probes} — read straight out of the flat buffer. *)

val mean : t -> int -> float
val rand_coeff : t -> int -> float
val variance : t -> int -> float
val std : t -> int -> float

val covariance : t -> int -> t -> int -> float
(** [covariance a i b j] is [Form.covariance] of slot [i] of [a] and slot
    [j] of [b]; the two buffers must have equal dims (they may be the same
    buffer). *)

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
(** Slot [idst] of [dst] becomes [Form.add a.(ia) b.(ib)]. *)

val max2_into : a:t -> ia:int -> b:t -> ib:int -> dst:t -> idst:int -> unit
(** Slot [idst] of [dst] becomes [Form.max2 a.(ia) b.(ib)]. *)

val add_then_max_into : acc:t -> iacc:int -> a:t -> ia:int -> b:t -> ib:int -> unit
(** The fused inner op of canonical propagation: slot [iacc] of [acc]
    becomes [Form.max2 acc.(iacc) (Form.add a.(ia) b.(ib))] without
    materializing the intermediate sum.  The [acc] slot must not alias the
    [a] slot (in a DAG sweep it never does: [src <> dst] for every edge). *)

(** {1 Fused moment gather}

    The criticality exact evaluation needs eight variances/covariances and
    four random coefficients over four slots A (arrival), E (edge delay),
    R (required) and M (pair maximum).  [quad_stats_into] computes all of
    them in a single strided pass, writing into a caller-owned scratch
    array of at least {!quad_size} floats at the indices below.  Each value
    is bit-identical to the corresponding {!variance} / {!covariance} /
    {!rand_coeff} probe; the fusion only removes redundant memory passes
    and the float boxing of twelve separate calls. *)

val quad_var_a : int
val quad_var_r : int
val quad_cov_ae : int
val quad_cov_ar : int
val quad_cov_er : int
val quad_cov_am : int
val quad_cov_em : int
val quad_cov_rm : int
val quad_rand_a : int
val quad_rand_e : int
val quad_rand_r : int
val quad_rand_m : int

val quad_size : int
(** Minimum scratch-array length for {!quad_stats_into} (= 12). *)

val quad_stats_into :
  a:t ->
  ia:int ->
  e:t ->
  ie:int ->
  r:t ->
  ir:int ->
  m:t ->
  im:int ->
  into:float array ->
  unit
(** All four buffers must share one [dims] (they may alias). *)

(** {1 Split pairwise gathers}

    The blocked criticality screen hoists the visit-invariant outputs of
    {!quad_stats_into} out of the eval: variances and random coefficients
    become per-tile scalar rows, Cov(A,E) a per-input cone table and
    Cov(E,R) a per-output edge table, leaving Cov(A,R), Cov(E,M),
    Cov(A,M) and Cov(R,M) per visit, fused below.  Every value is
    bit-identical to the corresponding {!covariance} probe (same segmented
    accumulation); all kernels write into caller scratch and allocate
    nothing. *)

val cov4_ar : int
val cov4_em : int
val cov4_am : int
val cov4_rm : int

val cov4_size : int
(** Minimum scratch-array length for {!cov4_into} (= 4). *)

val cov4_into :
  a:t ->
  ia:int ->
  e:t ->
  ie:int ->
  r:t ->
  ir:int ->
  m:t ->
  im:int ->
  into:float array ->
  unit
(** The four per-visit covariances of the exact tightness evaluation:
    [into.(cov4_ar) = Cov(a.(ia), r.(ir))],
    [into.(cov4_em) = Cov(e.(ie), m.(im))],
    [into.(cov4_am) = Cov(a.(ia), m.(im))] and
    [into.(cov4_rm) = Cov(r.(ir), m.(im))], fused into one strided pass
    whose four accumulation chains pipeline each other (a lone bit-exact
    dot is FP-add-latency bound, and the R,M chain multiplies two values
    the other chains already load).  All four buffers must share one
    [dims]. *)

val cov4_lanes : int
(** Lane count of {!cov4_batch2_into} (= 2). *)

val cov4_batch2_into :
  a:t ->
  e:t ->
  r:t ->
  m:t ->
  im:int ->
  srcs:int array ->
  dsts:int array ->
  edges:int array ->
  into:float array ->
  unit
(** {!cov4_into} for two independent evaluations at once, sharing the [m]
    slot: lane [j] (indices [srcs.(j)], [edges.(j)], [dsts.(j)], all
    arrays of length >= {!cov4_lanes}) writes
    [into.(j * cov4_size + cov4_{ar,em,am,rm})], each value bit-identical
    to a lone {!cov4_into} on that lane.  A serial bit-exact chain
    advances once per element and stalls on FP-add latency; eight
    interleaved chains fill those slots while still fitting the register
    file (wider batches spill accumulators and lose), which is where the
    criticality screen's eval throughput comes from.  [into] must be at
    least [cov4_lanes * cov4_size] long. *)

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
    >= the edge count), so later cone compactions never move entries. *)

val cov_dst_into :
  forms:t -> verts:t -> dst:int array -> mask:Bytes.t -> into:data -> unit
(** For each edge [e] with [mask.(dst.(e)) <> 0]:
    [into.{e} <- covariance forms e verts dst.(e)] — the per-output
    Cov(edge delay, required time at sink) table, filled once per backward
    sweep over the output's reach mask.  Entries of unmasked sinks are left
    untouched (the screen never reads them: its own visit guard is the same
    mask). *)
