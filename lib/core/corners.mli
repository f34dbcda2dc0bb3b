(** Corner-based (worst-case) STA - the baseline the paper's introduction
    argues against: "parameter variations make traditional corner-based
    static timing analysis too pessimistic".  This module quantifies that
    pessimism on our own workloads: it evaluates deterministic STA at
    process corners and compares the slow-corner delay against the SSTA
    distribution's quantiles. *)

type corner =
  | Nominal
  | Slow of float  (** every parameter at +k sigma (including local/random) *)
  | Fast of float  (** every parameter at -k sigma *)
  | Global_slow of float
      (** only the global (die-to-die) part at +k sigma; local and random
          at nominal - the "realistic" corner methodology *)

val corner_weights_into :
  Ssta_timing.Build.t -> corner -> into:float array -> unit
(** Per-edge deterministic delays at the corner, written into a
    caller-owned row (length at least the edge count) - the batch engine
    re-derives corner means per scenario into pooled worker scratch
    without allocating. *)

val corner_delay : Ssta_timing.Build.t -> corner -> float
(** Longest-path design delay at the corner. *)

type pessimism = {
  nominal : float;
  slow3 : float;  (** all-variation +3 sigma corner *)
  global_slow3 : float;
  ssta_q9987 : float;  (** SSTA 3-sigma-equivalent quantile *)
  margin_ratio : float;
      (** (slow3 - nominal) / (ssta_q9987 - nominal): how much wider the
          corner margin is than the statistically-needed margin *)
}

val pessimism : Ssta_timing.Build.t -> pessimism
(** Raises [Failure] if the circuit has no reachable output. *)

val pp_pessimism : Format.formatter -> pessimism -> unit
