(** The canonical first-order delay form of paper eq. (3):

    {v d = a0 + ag . xg + sum_i ai xi + ar xr v}

    where [xg] are the global variation variables (one per process parameter,
    shared by every delay in the whole design), [xi] are the independent
    principal components of the correlated local variation, and [xr] is a
    purely random variable private to this delay.  All variables are standard
    normal (normalized PCA convention, see DESIGN.md), so

    {v Var(d) = |ag|^2 + |a|^2 + ar^2. v}

    This module is the value type: the record, its moments and printers,
    which model files, serve responses and the CLI read.  The statistical
    sum and max (paper eqs. (6)-(9)) run on slab slots, in {!Form_buf}. *)

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

val add_const : t -> float -> t
val scale : float -> t -> t
(** Scales mean and all coefficients ([rand] keeps its canonical sign). *)

val cdf : t -> float -> float
(** Gaussian CDF of the form's value at a point. *)

val quantile : t -> float -> float
val pp : Format.formatter -> t -> unit
