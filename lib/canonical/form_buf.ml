module Normal = Ssta_gauss.Normal
module A1 = Bigarray.Array1

(* Slot layout: mean | globals[ng] | pcs[np] | rand.  All kernels keep the
   accumulation order of the pure Form operations (globals sum, then PCs
   sum, then the random part) so results are bit-identical to Form.add /
   Form.max2 / Form.variance / Form.covariance, not merely close.

   Storage is an unboxed float64 bigarray rather than a [float array]: the
   data lives outside the OCaml heap (no GC scanning of multi-megabyte
   sweeps), buffers can be carved out of a shared slab so a pool worker
   reuses one allocation across many scenarios, and the concrete type
   annotation below keeps every [A1.unsafe_get]/[A1.unsafe_set] compiled to
   a direct unboxed float load/store. *)

type data = (float, Bigarray.float64_elt, Bigarray.c_layout) A1.t

type t = {
  dims : Form.dims;
  stride : int;
  n : int;
  data : data;
  clark : float array;
      (* Clark-max argument/result scratch for the two max kernels, owned
         by the buffer so parallel workers sweeping into their own buffers
         never share it (a module-global here is a data race across
         domains).  A buffer itself is still single-domain: concurrent
         kernels targeting the SAME destination buffer are not safe. *)
}

(* A slab is a bump allocator over one bigarray chunk.  Buffers are carved
   off the front; [slab_reset] rewinds the cursor so the same chunk backs
   the next scenario's buffers without touching the allocator.  If a carve
   overflows the chunk, a fresh larger chunk replaces it - buffers carved
   earlier keep their views of the old chunk (the view keeps the backing
   alive), so overflow is safe but defeats reuse; callers should capacity-
   plan with [floats_needed] so steady state never grows. *)
type slab = {
  mutable chunk : data;
  mutable off : int;
  mutable peak_floats : int;
  mutable grows : int;
}

let floats_needed dims n =
  let stride = dims.Form.n_globals + dims.Form.n_pcs + 2 in
  max 1 (n * stride)

let slab_create floats =
  let cap = max 1 floats in
  {
    chunk = A1.create Bigarray.float64 Bigarray.c_layout cap;
    off = 0;
    peak_floats = cap;
    grows = 0;
  }

let slab_reset s = s.off <- 0
let slab_used_floats s = s.off
let slab_peak_bytes s = 8 * s.peak_floats
let slab_grows s = s.grows

let slab_alloc s need =
  if s.off + need > A1.dim s.chunk then begin
    let cap = max (2 * A1.dim s.chunk) need in
    s.chunk <- A1.create Bigarray.float64 Bigarray.c_layout cap;
    s.off <- 0;
    s.grows <- s.grows + 1;
    if cap > s.peak_floats then s.peak_floats <- cap
  end;
  let view = A1.sub s.chunk s.off need in
  s.off <- s.off + need;
  A1.fill view 0.0;
  view

(* Raw float rows carved from the same cursor as buffer carves: the
   criticality screen keeps its retained per-output scalar rows and
   covariance tables on the very slab that backs the tile's backward
   workspaces, so one capacity plan covers all of a tile's storage. *)
let slab_floats s n = slab_alloc s (max 1 n)

let create ?slab dims n =
  let stride = dims.Form.n_globals + dims.Form.n_pcs + 2 in
  let need = max 1 (n * stride) in
  let data =
    match slab with
    | Some s -> slab_alloc s need
    | None ->
        let d = A1.create Bigarray.float64 Bigarray.c_layout need in
        A1.fill d 0.0;
        d
  in
  { dims; stride; n; data; clark = Array.make 5 0.0 }

let length t = t.n
let dims t = t.dims
let stride t = t.stride

let check_slot t i name =
  if i < 0 || i >= t.n then
    invalid_arg (Printf.sprintf "Form_buf.%s: slot %d out of range [0, %d)" name i t.n)

(* Manual loops instead of A1.fill/A1.sub in per-slot ops: sub allocates a
   fresh view record on every call, which would put an allocation back into
   the hot paths this module exists to keep clean. *)
let clear_slot t i =
  check_slot t i "clear_slot";
  let off = i * t.stride in
  for k = off to off + t.stride - 1 do
    A1.unsafe_set t.data k 0.0
  done

let set t i f =
  check_slot t i "set";
  let ng = t.dims.Form.n_globals and np = t.dims.Form.n_pcs in
  if Array.length f.Form.globals <> ng || Array.length f.Form.pcs <> np then
    invalid_arg "Form_buf.set: form dims mismatch";
  let off = i * t.stride in
  A1.unsafe_set t.data off f.Form.mean;
  for k = 0 to ng - 1 do
    A1.unsafe_set t.data (off + 1 + k) (Array.unsafe_get f.Form.globals k)
  done;
  for k = 0 to np - 1 do
    A1.unsafe_set t.data (off + 1 + ng + k) (Array.unsafe_get f.Form.pcs k)
  done;
  A1.unsafe_set t.data (off + t.stride - 1) f.Form.rand

let get t i =
  check_slot t i "get";
  let ng = t.dims.Form.n_globals and np = t.dims.Form.n_pcs in
  let off = i * t.stride in
  {
    Form.mean = A1.unsafe_get t.data off;
    globals = Array.init ng (fun k -> A1.unsafe_get t.data (off + 1 + k));
    pcs = Array.init np (fun k -> A1.unsafe_get t.data (off + 1 + ng + k));
    rand = A1.unsafe_get t.data (off + t.stride - 1);
  }

let of_forms dims forms =
  let t = create dims (Array.length forms) in
  Array.iteri (fun i f -> set t i f) forms;
  t

(* Field-wise ints rather than a structural record compare: this guard sits
   on every kernel call, and caml_compare is a C call the loops can feel. *)
let check_dims a b name =
  if
    a.dims.Form.n_globals <> b.dims.Form.n_globals
    || a.dims.Form.n_pcs <> b.dims.Form.n_pcs
  then invalid_arg (Printf.sprintf "Form_buf.%s: dims mismatch" name)

let blit src i dst j =
  check_slot src i "blit";
  check_slot dst j "blit";
  check_dims src dst "blit";
  let os = i * src.stride and od = j * dst.stride in
  for k = 0 to src.stride - 1 do
    A1.unsafe_set dst.data (od + k) (A1.unsafe_get src.data (os + k))
  done

let mean t i = A1.unsafe_get t.data (i * t.stride)
let rand_coeff t i = A1.unsafe_get t.data ((i * t.stride) + t.stride - 1)

(* Sum of squares over [lo, lo+len), serial accumulation like Vec.sum_sq. *)
let sum_sq_range (d : data) lo len =
  let acc = ref 0.0 in
  for k = lo to lo + len - 1 do
    let v = A1.unsafe_get d k in
    acc := !acc +. (v *. v)
  done;
  !acc

let dot_range (da : data) la (db : data) lb len =
  let acc = ref 0.0 in
  for k = 0 to len - 1 do
    acc := !acc +. (A1.unsafe_get da (la + k) *. A1.unsafe_get db (lb + k))
  done;
  !acc

let variance t i =
  let off = i * t.stride in
  let ng = t.dims.Form.n_globals and np = t.dims.Form.n_pcs in
  let g = sum_sq_range t.data (off + 1) ng in
  let p = sum_sq_range t.data (off + 1 + ng) np in
  let r = A1.unsafe_get t.data (off + t.stride - 1) in
  g +. p +. (r *. r)

let std t i = sqrt (variance t i)

let covariance a ia b ib =
  check_dims a b "covariance";
  let ng = a.dims.Form.n_globals and np = a.dims.Form.n_pcs in
  let oa = ia * a.stride and ob = ib * b.stride in
  let g = dot_range a.data (oa + 1) b.data (ob + 1) ng in
  let p = dot_range a.data (oa + 1 + ng) b.data (ob + 1 + ng) np in
  g +. p

(* Fused pairwise-moment gather for the criticality exact evaluation: one
   strided pass over the four slots A (arrival), E (edge delay), R (required)
   and M (pair maximum) accumulates every variance/covariance the tightness
   computation needs, instead of nine separate probe calls re-reading the
   same cache lines.  Results land in the caller's scratch array (indices
   below) so the kernel allocates nothing.  Accumulation stays segmented
   (globals, then PCs) to remain bit-identical to [variance]/[covariance]. *)

let quad_var_a = 0
let quad_var_r = 1
let quad_cov_ae = 2
let quad_cov_ar = 3
let quad_cov_er = 4
let quad_cov_am = 5
let quad_cov_em = 6
let quad_cov_rm = 7
let quad_rand_a = 8
let quad_rand_e = 9
let quad_rand_r = 10
let quad_rand_m = 11
let quad_size = 12

let quad_stats_into ~a ~ia ~e ~ie ~r ~ir ~m ~im ~into =
  check_dims a e "quad_stats_into";
  check_dims a r "quad_stats_into";
  check_dims a m "quad_stats_into";
  if Array.length into < quad_size then
    invalid_arg "Form_buf.quad_stats_into: scratch array shorter than 12";
  let ng = a.dims.Form.n_globals and np = a.dims.Form.n_pcs in
  let da = a.data and de = e.data and dr = r.data and dm = m.data in
  let oa = ia * a.stride
  and oe = ie * e.stride
  and or_ = ir * r.stride
  and om = im * m.stride in
  (* Plain non-escaping refs in one function body: the compiler keeps them
     unboxed in registers.  Wrapping the per-segment loop in a local closure
     would capture the refs and re-box every float update, which costs more
     than the twelve probe calls this kernel replaces.  The segment sums are
     snapshotted between the two loops so the totals combine exactly like
     [sum_sq globals +. sum_sq pcs] in the scalar probes. *)
  let s_aa = ref 0.0
  and s_rr = ref 0.0
  and s_ae = ref 0.0
  and s_ar = ref 0.0
  and s_er = ref 0.0
  and s_am = ref 0.0
  and s_em = ref 0.0
  and s_rm = ref 0.0 in
  for k = 1 to ng do
    let va = A1.unsafe_get da (oa + k)
    and ve = A1.unsafe_get de (oe + k)
    and vr = A1.unsafe_get dr (or_ + k)
    and vm = A1.unsafe_get dm (om + k) in
    s_aa := !s_aa +. (va *. va);
    s_rr := !s_rr +. (vr *. vr);
    s_ae := !s_ae +. (va *. ve);
    s_ar := !s_ar +. (va *. vr);
    s_er := !s_er +. (ve *. vr);
    s_am := !s_am +. (va *. vm);
    s_em := !s_em +. (ve *. vm);
    s_rm := !s_rm +. (vr *. vm)
  done;
  let g_aa = !s_aa
  and g_rr = !s_rr
  and g_ae = !s_ae
  and g_ar = !s_ar
  and g_er = !s_er
  and g_am = !s_am
  and g_em = !s_em
  and g_rm = !s_rm in
  s_aa := 0.0;
  s_rr := 0.0;
  s_ae := 0.0;
  s_ar := 0.0;
  s_er := 0.0;
  s_am := 0.0;
  s_em := 0.0;
  s_rm := 0.0;
  for k = 1 + ng to ng + np do
    let va = A1.unsafe_get da (oa + k)
    and ve = A1.unsafe_get de (oe + k)
    and vr = A1.unsafe_get dr (or_ + k)
    and vm = A1.unsafe_get dm (om + k) in
    s_aa := !s_aa +. (va *. va);
    s_rr := !s_rr +. (vr *. vr);
    s_ae := !s_ae +. (va *. ve);
    s_ar := !s_ar +. (va *. vr);
    s_er := !s_er +. (ve *. vr);
    s_am := !s_am +. (va *. vm);
    s_em := !s_em +. (ve *. vm);
    s_rm := !s_rm +. (vr *. vm)
  done;
  let ra = A1.unsafe_get da (oa + a.stride - 1)
  and re = A1.unsafe_get de (oe + e.stride - 1)
  and rr = A1.unsafe_get dr (or_ + r.stride - 1)
  and rm = A1.unsafe_get dm (om + m.stride - 1) in
  into.(quad_var_a) <- (g_aa +. !s_aa) +. (ra *. ra);
  into.(quad_var_r) <- (g_rr +. !s_rr) +. (rr *. rr);
  into.(quad_cov_ae) <- g_ae +. !s_ae;
  into.(quad_cov_ar) <- g_ar +. !s_ar;
  into.(quad_cov_er) <- g_er +. !s_er;
  into.(quad_cov_am) <- g_am +. !s_am;
  into.(quad_cov_em) <- g_em +. !s_em;
  into.(quad_cov_rm) <- g_rm +. !s_rm;
  into.(quad_rand_a) <- ra;
  into.(quad_rand_e) <- re;
  into.(quad_rand_r) <- rr;
  into.(quad_rand_m) <- rm

(* Split pairwise gathers for the blocked criticality evaluation: most of
   [quad_stats_into]'s twelve outputs are invariant along one axis of the
   (output, input, edge) visit nest, so the blocked screen hoists them into
   per-tile rows and tables and only computes the four truly per-visit
   covariances - Cov(A,R), Cov(E,M), Cov(A,M) and Cov(R,M) - inside the
   eval, fused below.  Every kernel writes into caller scratch (no boxed
   float returns) and keeps the segmented accumulation of [covariance], so
   each value is bit-identical to the probe it replaces. *)

let cov4_ar = 0
let cov4_em = 1
let cov4_am = 2
let cov4_rm = 3
let cov4_size = 4

(* Why four dots and not fewer: the kernels above are latency-bound, not
   flop-bound - bit-exactness pins each dot to one serial accumulation
   chain, so a lone dot stalls on FP-add latency every element, and
   [quad_stats_into]'s eight interleaved chains hide that latency almost
   completely (eight dots cost barely twice one).  Splitting the eval into
   several narrow passes therefore re-pays the chain stall per pass and
   loses.  Cov(A,M) rides along unconditionally because the cone walk
   changes source every edge (fanin CSR groups edges by sink), so a
   source-keyed memo would never hit; Cov(R,M) rides along because its
   chain multiplies two values the A,R and E,M chains already load - a
   sink-keyed memo saved zero loads and re-paid the lone-dot stall on
   every fanin-2 sink change. *)
let cov4_into ~a ~ia ~e ~ie ~r ~ir ~m ~im ~into =
  check_dims a r "cov4_into";
  check_dims e m "cov4_into";
  check_dims a e "cov4_into";
  if Array.length into < cov4_size then
    invalid_arg "Form_buf.cov4_into: scratch array shorter than 4";
  let ng = a.dims.Form.n_globals and np = a.dims.Form.n_pcs in
  let da = a.data and de = e.data and dr = r.data and dm = m.data in
  let oa = ia * a.stride
  and oe = ie * e.stride
  and or_ = ir * r.stride
  and om = im * m.stride in
  let s_ar = ref 0.0 and s_em = ref 0.0 in
  let s_am = ref 0.0 and s_rm = ref 0.0 in
  for k = 1 to ng do
    let va = A1.unsafe_get da (oa + k)
    and ve = A1.unsafe_get de (oe + k)
    and vr = A1.unsafe_get dr (or_ + k)
    and vm = A1.unsafe_get dm (om + k) in
    s_ar := !s_ar +. (va *. vr);
    s_em := !s_em +. (ve *. vm);
    s_am := !s_am +. (va *. vm);
    s_rm := !s_rm +. (vr *. vm)
  done;
  let g_ar = !s_ar and g_em = !s_em and g_am = !s_am and g_rm = !s_rm in
  s_ar := 0.0;
  s_em := 0.0;
  s_am := 0.0;
  s_rm := 0.0;
  for k = 1 + ng to ng + np do
    let va = A1.unsafe_get da (oa + k)
    and ve = A1.unsafe_get de (oe + k)
    and vr = A1.unsafe_get dr (or_ + k)
    and vm = A1.unsafe_get dm (om + k) in
    s_ar := !s_ar +. (va *. vr);
    s_em := !s_em +. (ve *. vm);
    s_am := !s_am +. (va *. vm);
    s_rm := !s_rm +. (vr *. vm)
  done;
  into.(cov4_ar) <- g_ar +. !s_ar;
  into.(cov4_em) <- g_em +. !s_em;
  into.(cov4_am) <- g_am +. !s_am;
  into.(cov4_rm) <- g_rm +. !s_rm

let cov4_lanes = 2

(* Two independent evals' covariances in one pass: the per-element floor
   of [cov4_into] is the FP-add latency of its four serial chains (every
   chain must advance once per element), so interleaving two lanes' eight
   chains fills those latency slots - and stops there, because eight float
   accumulators (plus the seven loaded values per element) still fit the
   register file; a four-lane variant's sixteen accumulators spill, and
   the spill traffic costs more than the extra latency hiding buys.  Each
   lane's accumulation order is exactly [cov4_into]'s - segmented, serial
   in [k] - so lane [j]'s results are bit-identical to a lone call on
   ([srcs.(j)], [edges.(j)], [dsts.(j)]); the criticality screen's
   batching is thereby invisible in the results.  The lanes share the [m]
   slot ([im]). *)
let cov4_batch2_into ~a ~e ~r ~m ~im ~srcs ~dsts ~edges ~into =
  check_dims a r "cov4_batch2_into";
  check_dims e m "cov4_batch2_into";
  check_dims a e "cov4_batch2_into";
  if Array.length into < cov4_lanes * cov4_size then
    invalid_arg "Form_buf.cov4_batch2_into: scratch array shorter than 8";
  let ng = a.dims.Form.n_globals and np = a.dims.Form.n_pcs in
  let da = a.data and de = e.data and dr = r.data and dm = m.data in
  let oa0 = Array.unsafe_get srcs 0 * a.stride
  and oa1 = Array.unsafe_get srcs 1 * a.stride in
  let oe0 = Array.unsafe_get edges 0 * e.stride
  and oe1 = Array.unsafe_get edges 1 * e.stride in
  let or0 = Array.unsafe_get dsts 0 * r.stride
  and or1 = Array.unsafe_get dsts 1 * r.stride in
  let om = im * m.stride in
  let ar0 = ref 0.0 and em0 = ref 0.0 in
  let am0 = ref 0.0 and rm0 = ref 0.0 in
  let ar1 = ref 0.0 and em1 = ref 0.0 in
  let am1 = ref 0.0 and rm1 = ref 0.0 in
  for k = 1 to ng do
    let vm = A1.unsafe_get dm (om + k) in
    let va0 = A1.unsafe_get da (oa0 + k)
    and ve0 = A1.unsafe_get de (oe0 + k)
    and vr0 = A1.unsafe_get dr (or0 + k) in
    ar0 := !ar0 +. (va0 *. vr0);
    em0 := !em0 +. (ve0 *. vm);
    am0 := !am0 +. (va0 *. vm);
    rm0 := !rm0 +. (vr0 *. vm);
    let va1 = A1.unsafe_get da (oa1 + k)
    and ve1 = A1.unsafe_get de (oe1 + k)
    and vr1 = A1.unsafe_get dr (or1 + k) in
    ar1 := !ar1 +. (va1 *. vr1);
    em1 := !em1 +. (ve1 *. vm);
    am1 := !am1 +. (va1 *. vm);
    rm1 := !rm1 +. (vr1 *. vm)
  done;
  let g_ar0 = !ar0 and g_em0 = !em0 and g_am0 = !am0 and g_rm0 = !rm0 in
  let g_ar1 = !ar1 and g_em1 = !em1 and g_am1 = !am1 and g_rm1 = !rm1 in
  ar0 := 0.0;
  em0 := 0.0;
  am0 := 0.0;
  rm0 := 0.0;
  ar1 := 0.0;
  em1 := 0.0;
  am1 := 0.0;
  rm1 := 0.0;
  for k = 1 + ng to ng + np do
    let vm = A1.unsafe_get dm (om + k) in
    let va0 = A1.unsafe_get da (oa0 + k)
    and ve0 = A1.unsafe_get de (oe0 + k)
    and vr0 = A1.unsafe_get dr (or0 + k) in
    ar0 := !ar0 +. (va0 *. vr0);
    em0 := !em0 +. (ve0 *. vm);
    am0 := !am0 +. (va0 *. vm);
    rm0 := !rm0 +. (vr0 *. vm);
    let va1 = A1.unsafe_get da (oa1 + k)
    and ve1 = A1.unsafe_get de (oe1 + k)
    and vr1 = A1.unsafe_get dr (or1 + k) in
    ar1 := !ar1 +. (va1 *. vr1);
    em1 := !em1 +. (ve1 *. vm);
    am1 := !am1 +. (va1 *. vm);
    rm1 := !rm1 +. (vr1 *. vm)
  done;
  into.(cov4_ar) <- g_ar0 +. !ar0;
  into.(cov4_em) <- g_em0 +. !em0;
  into.(cov4_am) <- g_am0 +. !am0;
  into.(cov4_rm) <- g_rm0 +. !rm0;
  into.(cov4_size + cov4_ar) <- g_ar1 +. !ar1;
  into.(cov4_size + cov4_em) <- g_em1 +. !em1;
  into.(cov4_size + cov4_am) <- g_am1 +. !am1;
  into.(cov4_size + cov4_rm) <- g_rm1 +. !rm1

(* Edge-covariance tables: Cov(delay of edge e, vertex form at an endpoint
   of e), filled in bulk so the screen's inner loop reads one float where
   it used to run a strided dot product.  [cov_src_cone_into] fills the
   source-side table over an active cone list; [cov_dst_into] fills the
   sink-side table over all edges whose sink is marked reached.  Both index
   [into] by edge, so compaction of the cone lists never has to move the
   table entries. *)

let cov_src_cone_into ~verts ~forms ~src ~cone ~len ~into =
  check_dims verts forms "cov_src_cone_into";
  if len > Array.length cone then
    invalid_arg "Form_buf.cov_src_cone_into: len exceeds cone list";
  let ng = verts.dims.Form.n_globals and np = verts.dims.Form.n_pcs in
  let dv = verts.data and df = forms.data in
  for x = 0 to len - 1 do
    let e = Array.unsafe_get cone x in
    let ov = Array.unsafe_get src e * verts.stride
    and oe = e * forms.stride in
    let g = dot_range dv (ov + 1) df (oe + 1) ng in
    let p = dot_range dv (ov + 1 + ng) df (oe + 1 + ng) np in
    A1.unsafe_set into e (g +. p)
  done

let cov_dst_into ~forms ~verts ~dst ~mask ~into =
  check_dims verts forms "cov_dst_into";
  if A1.dim into < forms.n then
    invalid_arg "Form_buf.cov_dst_into: table shorter than edge count";
  let ng = verts.dims.Form.n_globals and np = verts.dims.Form.n_pcs in
  let dv = verts.data and df = forms.data in
  for e = 0 to forms.n - 1 do
    let d = Array.unsafe_get dst e in
    if Bytes.unsafe_get mask d <> '\000' then begin
      let ov = d * verts.stride and oe = e * forms.stride in
      let g = dot_range df (oe + 1) dv (ov + 1) ng in
      let p = dot_range df (oe + 1 + ng) dv (ov + 1 + ng) np in
      A1.unsafe_set into e (g +. p)
    end
  done

let scale_into ~alpha ~a ~ia ~dst ~idst =
  check_dims a dst "scale_into";
  let nc = a.dims.Form.n_globals + a.dims.Form.n_pcs in
  let oa = ia * a.stride and od = idst * dst.stride in
  (* Same operand order as Form.scale / Vec.scale: [alpha *. v] per
     coefficient, mean included, and the random coefficient through
     [abs_float]. *)
  for k = 0 to nc do
    A1.unsafe_set dst.data (od + k) (alpha *. A1.unsafe_get a.data (oa + k))
  done;
  A1.unsafe_set dst.data (od + dst.stride - 1)
    (abs_float alpha *. A1.unsafe_get a.data (oa + a.stride - 1))

(* Scenario recomposition: slot [idst] gets mean [mean], the deterministic
   coefficients of [a.(ia)] scaled by [beta], and the random coefficient of
   [a.(ia)] scaled by [abs_float beta].  This is how the batch engine derives
   a scenario's edge-delay form from the base form without re-running
   characterization: the mean comes from the corner/delay-scale model while
   the sensitivity shape is the base's, scaled.  Operand order per
   coefficient matches [scale_into] ([beta *. v]) so a scenario with
   [mean = beta *. base_mean] is bit-identical to [Form.scale beta]. *)
let recompose_into ~mean ~beta ~a ~ia ~dst ~idst =
  check_dims a dst "recompose_into";
  let nc = a.dims.Form.n_globals + a.dims.Form.n_pcs in
  let oa = ia * a.stride and od = idst * dst.stride in
  A1.unsafe_set dst.data od mean;
  for k = 1 to nc do
    A1.unsafe_set dst.data (od + k) (beta *. A1.unsafe_get a.data (oa + k))
  done;
  A1.unsafe_set dst.data (od + dst.stride - 1)
    (abs_float beta *. A1.unsafe_get a.data (oa + a.stride - 1))

let add_into ~a ~ia ~b ~ib ~dst ~idst =
  check_dims a dst "add_into";
  check_dims b dst "add_into";
  let nc = a.dims.Form.n_globals + a.dims.Form.n_pcs in
  let oa = ia * a.stride and ob = ib * b.stride and od = idst * dst.stride in
  A1.unsafe_set dst.data od
    (A1.unsafe_get a.data oa +. A1.unsafe_get b.data ob);
  for k = 1 to nc do
    A1.unsafe_set dst.data (od + k)
      (A1.unsafe_get a.data (oa + k) +. A1.unsafe_get b.data (ob + k))
  done;
  let ra = A1.unsafe_get a.data (oa + a.stride - 1)
  and rb = A1.unsafe_get b.data (ob + b.stride - 1) in
  A1.unsafe_set dst.data (od + dst.stride - 1) (sqrt ((ra *. ra) +. (rb *. rb)))

let max2_into ~a ~ia ~b ~ib ~dst ~idst =
  check_dims a dst "max2_into";
  check_dims b dst "max2_into";
  let ng = a.dims.Form.n_globals and np = a.dims.Form.n_pcs in
  let oa = ia * a.stride and ob = ib * b.stride and od = idst * dst.stride in
  (* The destination buffer's scratch: the destination is exclusively
     owned by the sweeping worker, so parallel domains never collide. *)
  let clark_scratch = dst.clark in
  clark_scratch.(0) <- A1.unsafe_get a.data oa;
  clark_scratch.(1) <- variance a ia;
  clark_scratch.(2) <- A1.unsafe_get b.data ob;
  clark_scratch.(3) <- variance b ib;
  clark_scratch.(4) <- covariance a ia b ib;
  Normal.clark_max_into clark_scratch;
  let tp = clark_scratch.(0)
  and mean = clark_scratch.(1)
  and target_var = clark_scratch.(2) in
  if tp >= 1.0 then blit a ia dst idst
  else if tp <= 0.0 then blit b ib dst idst
  else begin
    let s = 1.0 -. tp in
    (* Blend and the linear-variance sum fused per segment: each stored
       coefficient is squared as it is produced, in the order the separate
       sum_sq pass would read it back (calling sum_sq_range here would also
       box its float result - the only allocation left on this path). *)
    let s_lv = ref 0.0 in
    for k = 1 to ng do
      let v =
        (tp *. A1.unsafe_get a.data (oa + k))
        +. (s *. A1.unsafe_get b.data (ob + k))
      in
      A1.unsafe_set dst.data (od + k) v;
      s_lv := !s_lv +. (v *. v)
    done;
    let lg = !s_lv in
    s_lv := 0.0;
    for k = 1 + ng to ng + np do
      let v =
        (tp *. A1.unsafe_get a.data (oa + k))
        +. (s *. A1.unsafe_get b.data (ob + k))
      in
      A1.unsafe_set dst.data (od + k) v;
      s_lv := !s_lv +. (v *. v)
    done;
    let linear_var = lg +. !s_lv in
    A1.unsafe_set dst.data od mean;
    (* Same clamp as [Float.max 0.0 v] without the boxing stdlib call. *)
    let v = target_var -. linear_var in
    A1.unsafe_set dst.data (od + dst.stride - 1)
      (sqrt (if v > 0.0 then v else 0.0))
  end

let add_then_max_into ~acc ~iacc ~a ~ia ~b ~ib =
  check_dims a acc "add_then_max_into";
  check_dims b acc "add_then_max_into";
  let ng = acc.dims.Form.n_globals and np = acc.dims.Form.n_pcs in
  let oc = iacc * acc.stride and oa = ia * a.stride and ob = ib * b.stride in
  (* Moments of the un-materialized sum s = a + b, in Form.add's order: the
     random coefficient is rounded through sqrt exactly as the pure op
     stores it, then squared again for the variance. *)
  let mean_s = A1.unsafe_get a.data oa +. A1.unsafe_get b.data ob in
  let ra = A1.unsafe_get a.data (oa + a.stride - 1)
  and rb = A1.unsafe_get b.data (ob + b.stride - 1) in
  let rand_s = sqrt ((ra *. ra) +. (rb *. rb)) in
  (* One fused pass per coefficient segment accumulates Var(acc), Var(s)
     and Cov(acc, s) side by side; each accumulator sees exactly the terms
     the separate sum_sq/dot loops would feed it, in the same order.  The
     refs never escape into a closure, so they stay unboxed (see
     quad_stats_into). *)
  let s_va = ref 0.0 and s_vs = ref 0.0 and s_cov = ref 0.0 in
  for k = 1 to ng do
    let vc = A1.unsafe_get acc.data (oc + k)
    and v = A1.unsafe_get a.data (oa + k) +. A1.unsafe_get b.data (ob + k) in
    s_va := !s_va +. (vc *. vc);
    s_vs := !s_vs +. (v *. v);
    s_cov := !s_cov +. (vc *. v)
  done;
  let g_va = !s_va and g_vs = !s_vs and g_cov = !s_cov in
  s_va := 0.0;
  s_vs := 0.0;
  s_cov := 0.0;
  for k = 1 + ng to ng + np do
    let vc = A1.unsafe_get acc.data (oc + k)
    and v = A1.unsafe_get a.data (oa + k) +. A1.unsafe_get b.data (ob + k) in
    s_va := !s_va +. (vc *. vc);
    s_vs := !s_vs +. (v *. v);
    s_cov := !s_cov +. (vc *. v)
  done;
  let racc = A1.unsafe_get acc.data (oc + acc.stride - 1) in
  let clark_scratch = acc.clark in
  clark_scratch.(0) <- A1.unsafe_get acc.data oc;
  clark_scratch.(1) <- (g_va +. !s_va) +. (racc *. racc);
  clark_scratch.(2) <- mean_s;
  clark_scratch.(3) <- (g_vs +. !s_vs) +. (rand_s *. rand_s);
  clark_scratch.(4) <- g_cov +. !s_cov;
  Normal.clark_max_into clark_scratch;
  let tp = clark_scratch.(0)
  and mean = clark_scratch.(1)
  and target_var = clark_scratch.(2) in
  if tp >= 1.0 then () (* acc already holds the max *)
  else if tp <= 0.0 then begin
    A1.unsafe_set acc.data oc mean_s;
    for k = 1 to ng + np do
      A1.unsafe_set acc.data (oc + k)
        (A1.unsafe_get a.data (oa + k) +. A1.unsafe_get b.data (ob + k))
    done;
    A1.unsafe_set acc.data (oc + acc.stride - 1) rand_s
  end
  else begin
    let s = 1.0 -. tp in
    let s_lv = ref 0.0 in
    for k = 1 to ng do
      let v =
        (tp *. A1.unsafe_get acc.data (oc + k))
        +. (s
           *. (A1.unsafe_get a.data (oa + k) +. A1.unsafe_get b.data (ob + k)))
      in
      A1.unsafe_set acc.data (oc + k) v;
      s_lv := !s_lv +. (v *. v)
    done;
    let lg = !s_lv in
    s_lv := 0.0;
    for k = 1 + ng to ng + np do
      let v =
        (tp *. A1.unsafe_get acc.data (oc + k))
        +. (s
           *. (A1.unsafe_get a.data (oa + k) +. A1.unsafe_get b.data (ob + k)))
      in
      A1.unsafe_set acc.data (oc + k) v;
      s_lv := !s_lv +. (v *. v)
    done;
    let linear_var = lg +. !s_lv in
    A1.unsafe_set acc.data oc mean;
    let v = target_var -. linear_var in
    A1.unsafe_set acc.data (oc + acc.stride - 1)
      (sqrt (if v > 0.0 then v else 0.0))
  end
