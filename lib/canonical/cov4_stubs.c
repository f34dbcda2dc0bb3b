/* Per-visit covariance gather of the criticality screen: the four
   covariances Cov(A,R), Cov(E,M), Cov(A,M) and Cov(R,M) of four
   independent evaluations (lanes) sharing one M slot.  See
   Form_buf.cov4_batch_into for the contract; the OCaml wrapper checks
   dims, lane-array lengths and slot ranges before calling in here.

   Bit-exactness.  Every dot stays the serial chain of
   Form_buf.covariance: acc = 0.0; acc = acc + x[k] * y[k] for k in
   ascending order, once over the globals and once over the PCs, and the
   result is globals + PCs.  The vectors run ACROSS lanes, never along k:
   element j of a vector is lane j's own chain, and a vector multiply or
   add is the same correctly rounded IEEE operation as the scalar one.
   That holds only without contraction and fast-math, so dune compiles
   this file with -ffp-contract=off (a fused multiply-add rounds once
   where the OCaml code rounds twice; GCC contracts by default where the
   target has FMA, e.g. arm64) and -fno-fast-math (which would also
   reassociate and set flush-to-zero, changing subnormal results).  The
   vector types are GCC/Clang generic vectors of two doubles, i.e. plain
   SSE2 on x86-64 and NEON on arm64: no intrinsics and no -march.

   Why four lanes, and why C.  A bit-exact dot is latency-bound: each
   element waits for the previous add.  Four dots times four lanes keep
   sixteen chains in flight in eight two-wide accumulators, which with
   the seven loaded vectors still fit x86-64's sixteen vector registers.
   Compiled OCaml has no vector types and spills the row offsets of a
   loop this wide on every element. */

#include <caml/mlvalues.h>
#include <caml/bigarray.h>

typedef double v2d __attribute__((vector_size(16)));

enum { AR = 0, EM = 1, AM = 2, RM = 3, SIZE = 4, LANES = 4 };

/* One segment [lo, hi) of all sixteen chains, each started at +0.0. */
static void cov4_segment(const double *a, const double *e, const double *r,
                         const double *m, const intnat *oa, const intnat *oe,
                         const intnat *or_, intnat om, intnat lo, intnat hi,
                         v2d acc[8])
{
  v2d ar0 = { 0.0, 0.0 }, ar1 = ar0, em0 = ar0, em1 = ar0;
  v2d am0 = ar0, am1 = ar0, rm0 = ar0, rm1 = ar0;
  for (intnat k = lo; k < hi; k++) {
    double s = m[om + k];
    v2d vm = { s, s };
    v2d a0 = { a[oa[0] + k], a[oa[1] + k] };
    v2d a1 = { a[oa[2] + k], a[oa[3] + k] };
    v2d e0 = { e[oe[0] + k], e[oe[1] + k] };
    v2d e1 = { e[oe[2] + k], e[oe[3] + k] };
    v2d r0 = { r[or_[0] + k], r[or_[1] + k] };
    v2d r1 = { r[or_[2] + k], r[or_[3] + k] };
    ar0 = ar0 + a0 * r0;
    ar1 = ar1 + a1 * r1;
    em0 = em0 + e0 * vm;
    em1 = em1 + e1 * vm;
    am0 = am0 + a0 * vm;
    am1 = am1 + a1 * vm;
    rm0 = rm0 + r0 * vm;
    rm1 = rm1 + r1 * vm;
  }
  acc[0] = ar0;
  acc[1] = ar1;
  acc[2] = em0;
  acc[3] = em1;
  acc[4] = am0;
  acc[5] = am1;
  acc[6] = rm0;
  acc[7] = rm1;
}

value hssta_cov4_batch(value va, value ve, value vr, value vm, intnat im,
                       intnat stride, intnat ng, intnat np, value srcs,
                       value dsts, value edges, value vinto)
{
  const double *a = (const double *)Caml_ba_data_val(va);
  const double *e = (const double *)Caml_ba_data_val(ve);
  const double *r = (const double *)Caml_ba_data_val(vr);
  const double *m = (const double *)Caml_ba_data_val(vm);
  double *into = (double *)Caml_ba_data_val(vinto);
  intnat oa[LANES], oe[LANES], or_[LANES];
  for (int j = 0; j < LANES; j++) {
    oa[j] = Long_val(Field(srcs, j)) * stride;
    oe[j] = Long_val(Field(edges, j)) * stride;
    or_[j] = Long_val(Field(dsts, j)) * stride;
  }
  intnat om = im * stride;
  v2d g[8], p[8];
  cov4_segment(a, e, r, m, oa, oe, or_, om, 1, 1 + ng, g);
  cov4_segment(a, e, r, m, oa, oe, or_, om, 1 + ng, 1 + ng + np, p);
  /* acc[2q + h] holds covariance q of lanes 2h and 2h + 1. */
  static const int slot[4] = { AR, EM, AM, RM };
  for (int q = 0; q < 4; q++)
    for (int h = 0; h < 2; h++) {
      v2d s = g[2 * q + h] + p[2 * q + h];
      into[(2 * h) * SIZE + slot[q]] = s[0];
      into[(2 * h + 1) * SIZE + slot[q]] = s[1];
    }
  return Val_unit;
}

value hssta_cov4_batch_byte(value *argv, int argn)
{
  (void)argn;
  return hssta_cov4_batch(argv[0], argv[1], argv[2], argv[3],
                          Long_val(argv[4]), Long_val(argv[5]),
                          Long_val(argv[6]), Long_val(argv[7]), argv[8],
                          argv[9], argv[10], argv[11]);
}
