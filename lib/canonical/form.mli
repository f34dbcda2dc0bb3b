(** The canonical first-order delay form of paper eq. (3):

    {v d = a0 + ag . xg + sum_i ai xi + ar xr v}

    where [xg] are the global variation variables (one per process parameter,
    shared by every delay in the whole design), [xi] are the independent
    principal components of the correlated local variation, and [xr] is a
    purely random variable private to this delay.  All variables are standard
    normal (normalized PCA convention, see DESIGN.md), so

    {v Var(d) = |ag|^2 + |a|^2 + ar^2. v}

    Statistical [sum] adds coefficients and RSS-combines the random parts;
    statistical [max] is the moment-matching approximation of paper
    eqs. (6)-(9) after Clark and Visweswariah et al. *)

type t = {
  mean : float;
  globals : float array;  (** one coefficient per process parameter *)
  pcs : float array;  (** principal-component coefficients *)
  rand : float;  (** coefficient of the private random variable, >= 0 *)
}

type dims = { n_globals : int; n_pcs : int }

val dims : t -> dims
val constant : dims -> float -> t
(** Deterministic value embedded as a canonical form. *)

val zero : dims -> t

val make :
  mean:float -> globals:float array -> pcs:float array -> rand:float -> t
(** Raises [Invalid_argument] on a negative random coefficient (its sign is
    not observable; we canonicalize to non-negative). *)

val variance : t -> float
val std : t -> float
val covariance : t -> t -> float
(** Covariance of two forms; their private random parts are independent by
    construction so only globals and PCs contribute. *)

val correlation : t -> t -> float

val add : t -> t -> t
(** Statistical sum (paper Section II): coefficients add; the two private
    random parts are replaced by one variance-matched random part. *)

val add_const : t -> float -> t
val scale : float -> t -> t
(** Scales mean and all coefficients ([rand] keeps its canonical sign). *)

val tightness : t -> t -> float
(** [tightness a b] is the probability P(a >= b), paper eq. (6). *)

val tightness_of_sum : t -> t -> t -> float
(** [tightness_of_sum a f b] is [tightness (add a f) b], bit for bit,
    without materializing the sum (no intermediate arrays or form): the
    hot step of maximum-likelihood path tracing.  Raises
    [Invalid_argument] on mismatched dimensions. *)

val max2 : t -> t -> t
(** Statistical maximum in canonical form, paper eqs. (7)-(9): the mean is
    exact (Clark), linear coefficients are tightness-blended, and the random
    coefficient is set to match Clark's variance (clamped at zero when the
    blended linear part already over-covers it). *)

val max_list : t list -> t
(** Left fold of {!max2}; raises [Invalid_argument] on the empty list. *)

val cdf : t -> float -> float
(** Gaussian CDF of the form's value at a point. *)

val quantile : t -> float -> float
val sample : t -> globals:float array -> pcs:float array -> rand:float -> float
(** Evaluate the form on a realization of all variables (for tests). *)

val equal : ?tol:float -> t -> t -> bool
val pp : Format.formatter -> t -> unit

val sanitize_forms :
  subsystem:string -> operation:string -> t array -> t array
(** Validated boundary of the robust layer.  Scans every form for
    non-finite coefficients and for statistically degenerate arcs
    (positive mean with exactly zero variance; mean-0 interconnect
    constants are exempt).  Under [Strict] the first offense raises
    [Ssta_robust.Robust.Error] with [subsystem]/[operation] context and
    the form index; under [Repair]/[Warn] non-finite coefficients are
    zeroed into a lazily-made copy (counted in [robust.nan_sanitized])
    and zero-variance arcs are kept but counted
    ([robust.zero_variance_arcs]).  A clean array is returned physically
    unchanged. *)
