(** Eigendecomposition of real symmetric matrices by the cyclic Jacobi
    method.  Robust and accurate for the moderate dimensions (tens to a few
    hundred grid variables) that SSTA covariance matrices have.

    Storage: the working matrix is one flat row-major [float array] (a copy
    of the input's data), and the eigenvectors are kept transposed in a
    second one, so rotating a pair (p, q) is one strided pass over columns
    p and q of the matrix and one contiguous pass over rows p and q of both
    arrays.  A sweep visits all n(n-1)/2 pairs, each rotation touching
    6n entries: O(n{^ 3}) per sweep.  The design grids of the hierarchical
    flow (100-225 tiles) take about 9 sweeps.

    The full matrix is rotated, lower triangle included, with the same
    operations in the same order as the array-of-arrays implementation
    this replaced: values and vectors are bit-identical to it
    ([test/test_linalg.ml] keeps that implementation as its oracle). *)

type decomposition = {
  values : float array;  (** eigenvalues, sorted in decreasing order *)
  vectors : Mat.t;  (** orthonormal eigenvectors as {e columns}, same order *)
}

val decompose : ?max_sweeps:int -> Mat.t -> decomposition
(** Raises [Invalid_argument] if the matrix is not square, and
    [Ssta_robust.Robust.Error] if an entry is non-finite or the matrix is
    not symmetric (tolerance 1e-8 relative to the largest entry; the error
    names the worst-offending entry pair).  The sweep cap is verified: an
    off-diagonal residual above tolerance at the cap raises under the
    [Strict] policy and is counted in [robust.jacobi_residual] under
    [Repair]/[Warn].  With [Obs] enabled, each call adds its sweep and
    rotation counts to [linalg.jacobi_sweeps] and
    [linalg.jacobi_rotations]. *)

val reconstruct : decomposition -> Mat.t
(** [v * diag(values) * v^T]; useful for testing. *)
