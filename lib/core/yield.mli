(** Timing yield utilities: turning a canonical design-delay form or a Monte
    Carlo sample into the delay-yield information SSTA exists to provide. *)

module Form = Ssta_canonical.Form

val clock_for_yield : Form.t -> yield:float -> float
(** Smallest clock period achieving the target yield (Gaussian quantile). *)

val empirical : float array -> clock:float -> float
(** Fraction of Monte Carlo samples meeting the clock. *)
