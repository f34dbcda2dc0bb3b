(** The variation basis: the set of independent random variables every
    canonical form in one analysis context is expressed over.

    A basis is built from a tile partition (regular at module level,
    heterogeneous at design level), a correlation model and the number of
    process parameters.  It performs PCA of the unit-variance local
    covariance matrix C (paper eq. (2)) once; each parameter gets its own
    independent copy of the PC block, so the PC dimension is
    [n_params * n_tiles].  Canonical-form coefficients for a delay are then
    assembled from a cell's nominal delay and per-parameter sensitivities. *)

module Form = Ssta_canonical.Form

type t = private {
  n_params : int;
  corr : Correlation.model;
  pitch : float;  (** distance unit: one grid pitch *)
  tiles : Tile.t array;
  pca : Ssta_linalg.Pca.t;
  dims : Form.dims;
}

val make :
  n_params:int -> corr:Correlation.model -> pitch:float -> Tile.t array -> t
(** Raises [Invalid_argument] on an empty tile set or non-positive counts.
    Coincident tiles (centers closer than [1e-6] pitch) make the local
    covariance rank-deficient: under the [Strict] robustness policy this
    raises [Ssta_robust.Robust.Error] naming the tile pair; under
    [Repair]/[Warn] the event is counted in [robust.degenerate_tiles] and
    PCA truncates the duplicated direction. *)

val of_parts :
  n_params:int ->
  corr:Correlation.model ->
  pitch:float ->
  tiles:Tile.t array ->
  pca:Ssta_linalg.Pca.t ->
  t
(** Rebuild a basis from serialized parts (timing-model deserialization)
    without re-running PCA - eigenvector sign conventions are preserved, so
    coefficient vectors stored against the original basis remain valid.
    Raises [Invalid_argument] if the PCA dimension does not match the tile
    count. *)

val n_tiles : t -> int

val local_covariance_matrix : t -> Ssta_linalg.Mat.t
(** The normalized C the PCA was computed from (fresh copy, for tests). *)

val delay_form :
  t ->
  nominal:float ->
  tile:int ->
  sens:float array ->
  extra_random_sigma:float ->
  Form.t
(** Canonical form of one delay: mean [nominal]; per-parameter global
    coefficient [nominal * sens.(k) * sqrt var_global]; PC coefficients from
    the tile's PCA row scaled by [nominal * sens.(k) * sqrt var_local] in
    parameter block [k]; random part RSS-combining per-parameter random
    variance and [extra_random_sigma] (an absolute sigma, e.g. load
    variation). *)

val sample_globals : t -> Ssta_gauss.Rng.t -> float array
(** One standard-normal draw per parameter. *)

val sample_local_fields : t -> Ssta_gauss.Rng.t -> float array array
(** [n_params] independent correlated unit-variance local fields, each with
    one value per tile (drawn through the PCA factor, so their covariance is
    the clamped C). *)

val tile_of_point : t -> float * float -> int
(** Index of the tile containing a point (linear scan; fine for tests and
    model building, use {!Grid.index_of_point} for bulk regular lookups). *)
