(** Sample statistics used to compare SSTA results against Monte Carlo. *)

module Welford : sig
  type t
  (** Streaming mean/variance accumulator (numerically stable). *)

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  val variance : t -> float
  (** Unbiased sample variance; 0 for fewer than two samples. *)

  val std : t -> float
end

val mean : float array -> float
(** Raises [Ssta_robust.Robust.Error] (naming the first offending index)
    if the sample contains NaN — as do {!quantile}, {!empirical_cdf},
    {!histogram} and everything built on them: polymorphic compare orders
    NaN arbitrarily and sums poison silently, so the failure is made
    explicit at the boundary. *)

val variance : float array -> float
(** Unbiased sample variance. *)

val std : float array -> float

val quantile : float array -> float -> float
(** [quantile xs p] for [p] in [0,1]: linear interpolation on the sorted
    sample.  The input array is not modified. *)

val empirical_cdf : float array -> float array * float array
(** [empirical_cdf xs] is [(sorted_values, probabilities)] where
    [probabilities.(i) = (i+1) / n]. *)

val histogram : ?lo:float -> ?hi:float -> bins:int -> float array -> int array
(** Counts per bin over [lo, hi] (defaults: sample min/max).  Values landing
    exactly on [hi] go to the last bin.  With explicit [lo]/[hi], samples
    outside the range are {e dropped} — use {!histogram_dropped} when the
    caller needs to know how many (a histogram that silently loses mass
    misreports tails). *)

val histogram_dropped :
  ?lo:float -> ?hi:float -> bins:int -> float array -> int array * int
(** Like {!histogram}, also returning the number of samples that fell
    outside [lo, hi] (always [0] when both default). *)

val ks_distance : float array -> (float -> float) -> float
(** Kolmogorov-Smirnov distance between the sample and a reference CDF. *)
