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
