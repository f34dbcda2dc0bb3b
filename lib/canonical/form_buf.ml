module Normal = Ssta_gauss.Normal
module A1 = Bigarray.Array1

(* Slot layout: mean | globals[ng] | pcs[np] | rand.  Every kernel keeps
   one accumulation order for the moments (globals sum, then PCs sum, then
   the random part), so fused kernels are bit-identical to the plain
   [variance]/[covariance] probes and to the boxed reference arithmetic in
   test/sweep_oracle.ml, not merely close.

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

(* A slab is a bump allocator over one bigarray chunk, carved once and
   never rewound.  If a carve overflows the chunk, a fresh larger chunk
   replaces it - buffers carved earlier keep their views of the old chunk
   (the view keeps the backing alive), so overflow is safe but wasteful;
   callers capacity-plan with [floats_needed] so the chunk never grows. *)
type slab = {
  mutable chunk : data;
  mutable off : int;
  mutable peak_floats : int;
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
  }

let slab_peak_bytes s = 8 * s.peak_floats

let slab_alloc s need =
  if s.off + need > A1.dim s.chunk then begin
    let cap = max (2 * A1.dim s.chunk) need in
    s.chunk <- A1.create Bigarray.float64 Bigarray.c_layout cap;
    s.off <- 0;
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

let copy t =
  let c = create t.dims t.n in
  A1.blit t.data c.data;
  c

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

(* Independent-variable replacement (paper eq. (19)) straight into a
   slot.  [Substitute m] rewrites each parameter's PC block x as M^T x with
   exactly [Mat.tmul_vec]'s accumulation per output entry: start at 0.0,
   then add x_i * M_ij for every non-zero x_i in ascending i.  Four
   non-zero rows are register-blocked into one running value, so each
   output entry is loaded and stored once per four rows while seeing the
   same adds in the same order - bit-identical to the lone-row loop.
   [Place] copies the block into its private design slots, zeros
   elsewhere. *)
type pc_map =
  | Substitute of Ssta_linalg.Mat.t
  | Place of { offset : int; tiles : int }

let rec next_nonzero (x : data) xo n i =
  if i >= n || A1.unsafe_get x (xo + i) <> 0.0 then i
  else next_nonzero x xo n (i + 1)

let axpy_row (m : float array) ~cols ~a ~row (d : data) o =
  let b = row * cols in
  for j = 0 to cols - 1 do
    A1.unsafe_set d (o + j)
      (A1.unsafe_get d (o + j) +. (a *. Array.unsafe_get m (b + j)))
  done

(* [d.{o + j} <- sum_i x.(xo + i) * m.(i * cols + j)] over the [n] rows;
   the [cols] output entries must be zero on entry. *)
let tmul_block (m : float array) ~cols (x : data) xo n (d : data) o =
  let i0 = ref (next_nonzero x xo n 0) in
  while !i0 < n do
    let i1 = next_nonzero x xo n (!i0 + 1) in
    let i2 = if i1 < n then next_nonzero x xo n (i1 + 1) else n in
    let i3 = if i2 < n then next_nonzero x xo n (i2 + 1) else n in
    if i3 < n then begin
      let a0 = A1.unsafe_get x (xo + !i0)
      and a1 = A1.unsafe_get x (xo + i1)
      and a2 = A1.unsafe_get x (xo + i2)
      and a3 = A1.unsafe_get x (xo + i3) in
      let b0 = !i0 * cols and b1 = i1 * cols and b2 = i2 * cols
      and b3 = i3 * cols in
      for j = 0 to cols - 1 do
        A1.unsafe_set d (o + j)
          (A1.unsafe_get d (o + j)
           +. (a0 *. Array.unsafe_get m (b0 + j))
           +. (a1 *. Array.unsafe_get m (b1 + j))
           +. (a2 *. Array.unsafe_get m (b2 + j))
           +. (a3 *. Array.unsafe_get m (b3 + j)))
      done;
      i0 := next_nonzero x xo n (i3 + 1)
    end
    else begin
      axpy_row m ~cols ~a:(A1.unsafe_get x (xo + !i0)) ~row:!i0 d o;
      if i1 < n then axpy_row m ~cols ~a:(A1.unsafe_get x (xo + i1)) ~row:i1 d o;
      if i2 < n then axpy_row m ~cols ~a:(A1.unsafe_get x (xo + i2)) ~row:i2 d o;
      i0 := n
    end
  done

let replace_into ~map ~src ~isrc ~dst ~idst =
  check_slot src isrc "replace_into";
  check_slot dst idst "replace_into";
  let ng = dst.dims.Form.n_globals and np = dst.dims.Form.n_pcs in
  let rows, fits =
    match map with
    | Substitute m -> (m.Ssta_linalg.Mat.rows, ng * m.Ssta_linalg.Mat.cols = np)
    | Place { offset; tiles } ->
        (tiles, offset >= 0 && ng * (offset + tiles) <= np)
  in
  if
    (not fits)
    || src.dims.Form.n_globals <> ng
    || src.dims.Form.n_pcs <> ng * rows
  then invalid_arg "Form_buf.replace_into: form does not match the bases";
  let design = if ng = 0 then 0 else np / ng in
  let x = src.data and os = isrc * src.stride in
  let d = dst.data and od = idst * dst.stride in
  for k = 0 to ng do
    A1.unsafe_set d (od + k) (A1.unsafe_get x (os + k))
  done;
  let pc0 = od + 1 + ng and xs0 = os + 1 + ng in
  for k = pc0 to pc0 + np - 1 do
    A1.unsafe_set d k 0.0
  done;
  (match map with
  | Substitute m ->
      for k = 0 to ng - 1 do
        tmul_block m.Ssta_linalg.Mat.data ~cols:design x (xs0 + (k * rows))
          rows d (pc0 + (k * design))
      done
  | Place { offset; tiles } ->
      for k = 0 to ng - 1 do
        for i = 0 to tiles - 1 do
          A1.unsafe_set d
            (pc0 + (k * design) + offset + i)
            (A1.unsafe_get x (xs0 + (k * tiles) + i))
        done
      done);
  A1.unsafe_set d (od + dst.stride - 1) (A1.unsafe_get x (os + src.stride - 1))

let mean t i = A1.unsafe_get t.data (i * t.stride)
let rand_coeff t i = A1.unsafe_get t.data ((i * t.stride) + t.stride - 1)

(* Sum of squares over [lo, lo+len), serial accumulation like Vec.sum_sq.
   The probes below are inlined so kernels calling them ([max2_into], the
   fold of every worst-output answer) keep the float results unboxed and
   allocate nothing. *)
let[@inline] sum_sq_range (d : data) lo len =
  let acc = ref 0.0 in
  for k = lo to lo + len - 1 do
    let v = A1.unsafe_get d k in
    acc := !acc +. (v *. v)
  done;
  !acc

let[@inline] dot_range (da : data) la (db : data) lb len =
  let acc = ref 0.0 in
  for k = 0 to len - 1 do
    acc := !acc +. (A1.unsafe_get da (la + k) *. A1.unsafe_get db (lb + k))
  done;
  !acc

let[@inline] variance t i =
  let off = i * t.stride in
  let ng = t.dims.Form.n_globals and np = t.dims.Form.n_pcs in
  let g = sum_sq_range t.data (off + 1) ng in
  let p = sum_sq_range t.data (off + 1 + ng) np in
  let r = A1.unsafe_get t.data (off + t.stride - 1) in
  g +. p +. (r *. r)

let std t i = sqrt (variance t i)

let[@inline] covariance a ia b ib =
  check_dims a b "covariance";
  let ng = a.dims.Form.n_globals and np = a.dims.Form.n_pcs in
  let oa = ia * a.stride and ob = ib * b.stride in
  let g = dot_range a.data (oa + 1) b.data (ob + 1) ng in
  let p = dot_range a.data (oa + 1 + ng) b.data (ob + 1 + ng) np in
  g +. p

(* Paper eq. (6) on two slots, through [a]'s Clark scratch like the max
   kernels: the record-returning [Normal.clark_max] would box its five
   float arguments and its result on every probe. *)
let[@inline] tightness a ia b ib =
  check_slot a ia "tightness";
  check_slot b ib "tightness";
  let s = a.clark in
  s.(0) <- mean a ia;
  s.(1) <- variance a ia;
  s.(2) <- mean b ib;
  s.(3) <- variance b ib;
  s.(4) <- covariance a ia b ib;
  Normal.clark_max_into s;
  s.(0)

(* Validated boundary of the robust layer: [Extract] and [Hier_analysis]
   pass their incoming slabs through here before entering the kernels.
   Detection is read-only and a clean slab is returned physically
   unchanged, so the clean path is bit-identical under every policy; the
   copy is made lazily on the first repaired slot. *)

module Robust = Ssta_robust.Robust

let nan_sanitized = Robust.counter "robust.nan_sanitized"
let zero_variance_arcs = Robust.counter "robust.zero_variance_arcs"

(* One pass per slot accumulating the coefficient sum (self-subtraction
   catches NaN/Inf anywhere) and the squared-coefficient sum (exact zero
   variance with a positive mean marks a statistically degenerate arc -
   every characterized arc carries variation; interconnect constants have
   mean 0 and are exempt). *)
let classify t i =
  let d = t.data and o = i * t.stride in
  let mean = A1.unsafe_get d o and rand = A1.unsafe_get d (o + t.stride - 1) in
  let s = ref (mean +. rand) and q = ref (rand *. rand) in
  for k = o + 1 to o + t.stride - 2 do
    let x = A1.unsafe_get d k in
    s := !s +. x;
    q := !q +. (x *. x)
  done;
  if !s -. !s <> 0.0 then `Nonfinite
  else if mean > 0.0 && !q = 0.0 then `Zero_variance
  else `Ok

let repair_slot t i =
  let d = t.data and o = i * t.stride in
  for k = o to o + t.stride - 1 do
    if not (Robust.is_finite (A1.unsafe_get d k)) then A1.unsafe_set d k 0.0
  done;
  let r = o + t.stride - 1 in
  if not (A1.unsafe_get d r > 0.0) then A1.unsafe_set d r 0.0

let sanitize ~subsystem ~operation t =
  let fixed = ref None in
  for i = 0 to t.n - 1 do
    match classify t i with
    | `Ok -> ()
    | `Zero_variance ->
        Robust.repair zero_variance_arcs
          (Robust.context ~subsystem ~operation ~indices:[ i ]
             ~values:[ mean t i ]
             "zero-variance arc with positive mean (statistically degenerate \
              cell)")
    | `Nonfinite ->
        Robust.repair nan_sanitized
          (Robust.context ~subsystem ~operation ~indices:[ i ]
             ~values:[ mean t i; rand_coeff t i ]
             "non-finite coefficient in canonical form; zeroing");
        let dst =
          match !fixed with
          | Some c -> c
          | None ->
              let c = copy t in
              fixed := Some c;
              c
        in
        repair_slot dst i
  done;
  match !fixed with Some c -> c | None -> t

(* Per-visit covariance gather for the blocked criticality evaluation:
   the screen keeps every visit-invariant moment of its exact tightness
   evaluation in per-tile rows and tables (variances and random
   coefficients per vertex and edge, Cov(A,E) per input cone, Cov(E,R)
   per output), so only the four truly per-visit covariances - Cov(A,R),
   Cov(E,M), Cov(A,M) and Cov(R,M) for arrival A, edge delay E, required
   time R and pair maximum M - are gathered here, into caller scratch (no
   boxed float returns), with the segmented accumulation of [covariance]
   so each value is bit-identical to the probe it replaces. *)

let cov4_ar = 0
let cov4_em = 1
let cov4_am = 2
let cov4_rm = 3
let cov4_size = 4
let cov4_lanes = 4

(* Four independent evals' covariances in one pass of the C kernel in
   cov4_stubs.c, which explains the lane count and the compiler flags
   that keep every lane bit-identical to [covariance].  Cov(A,M) is
   gathered per visit because the cone walk changes source every edge
   (fanin CSR groups edges by sink), so a source-keyed memo would never
   hit; Cov(R,M) because its chain multiplies values the A,R and E,M
   chains already load.  The kernel trusts its indices, so everything it
   reads is checked here, once per call. *)
external cov4_batch_raw :
  data ->
  data ->
  data ->
  data ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  int array ->
  int array ->
  int array ->
  data ->
  unit = "hssta_cov4_batch_byte" "hssta_cov4_batch"
[@@noalloc]

let cov4_batch_into ~a ~e ~r ~m ~im ~srcs ~dsts ~edges ~into =
  check_dims a r "cov4_batch_into";
  check_dims e m "cov4_batch_into";
  check_dims a e "cov4_batch_into";
  if
    Array.length srcs < cov4_lanes
    || Array.length dsts < cov4_lanes
    || Array.length edges < cov4_lanes
  then invalid_arg "Form_buf.cov4_batch_into: lane arrays shorter than 4";
  if A1.dim into < cov4_lanes * cov4_size then
    invalid_arg "Form_buf.cov4_batch_into: scratch shorter than 16";
  check_slot m im "cov4_batch_into";
  for j = 0 to cov4_lanes - 1 do
    check_slot a (Array.unsafe_get srcs j) "cov4_batch_into";
    check_slot e (Array.unsafe_get edges j) "cov4_batch_into";
    check_slot r (Array.unsafe_get dsts j) "cov4_batch_into"
  done;
  cov4_batch_raw a.data e.data r.data m.data im a.stride a.dims.Form.n_globals
    a.dims.Form.n_pcs srcs dsts edges into

(* Edge-covariance tables: Cov(delay of edge e, vertex form at an endpoint
   of e), filled in bulk so the screen's inner loop reads one float where
   it used to run a strided dot product.  [cov_src_cone_into] fills the
   source-side table over an active cone list; [cov_dst_into] fills the
   sink-side table over all edges whose sink is marked reached.  Both index
   [into] by edge, so a walk over any slice of a cone list reads them
   directly. *)

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
  let da = a.data and db = b.data and dd = dst.data in
  A1.unsafe_set dd od (A1.unsafe_get da oa +. A1.unsafe_get db ob);
  (* Four independent element sums per iteration: the slots' elements do
     not interact, so only the loop overhead changes. *)
  let k = ref 1 in
  while !k + 3 <= nc do
    let i = !k in
    let x0 = A1.unsafe_get da (oa + i) +. A1.unsafe_get db (ob + i)
    and x1 = A1.unsafe_get da (oa + i + 1) +. A1.unsafe_get db (ob + i + 1)
    and x2 = A1.unsafe_get da (oa + i + 2) +. A1.unsafe_get db (ob + i + 2)
    and x3 = A1.unsafe_get da (oa + i + 3) +. A1.unsafe_get db (ob + i + 3) in
    A1.unsafe_set dd (od + i) x0;
    A1.unsafe_set dd (od + i + 1) x1;
    A1.unsafe_set dd (od + i + 2) x2;
    A1.unsafe_set dd (od + i + 3) x3;
    k := i + 4
  done;
  for i = !k to nc do
    A1.unsafe_set dd (od + i) (A1.unsafe_get da (oa + i) +. A1.unsafe_get db (ob + i))
  done;
  let ra = A1.unsafe_get da (oa + a.stride - 1)
  and rb = A1.unsafe_get db (ob + b.stride - 1) in
  A1.unsafe_set dd (od + dst.stride - 1) (sqrt ((ra *. ra) +. (rb *. rb)))

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
  (* Moments of the un-materialized sum s = a + b, in [add_into]'s order:
     the random coefficient is rounded through sqrt exactly as [add_into]
     stores it, then squared again for the variance. *)
  let mean_s = A1.unsafe_get a.data oa +. A1.unsafe_get b.data ob in
  let ra = A1.unsafe_get a.data (oa + a.stride - 1)
  and rb = A1.unsafe_get b.data (ob + b.stride - 1) in
  let rand_s = sqrt ((ra *. ra) +. (rb *. rb)) in
  (* One fused pass per coefficient segment accumulates Var(acc), Var(s)
     and Cov(acc, s) side by side; each accumulator sees exactly the terms
     the separate sum_sq/dot loops would feed it, in the same order.  The
     refs never escape into a closure, so the compiler keeps them unboxed
     in registers (a local per-segment closure would capture them and
     re-box every float update). *)
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
