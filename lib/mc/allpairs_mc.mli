(** Monte Carlo statistics of all input-to-output delays of one module -
    the reference the paper validates extracted timing models against
    (Table I's merr/verr columns).

    Each iteration samples the variation model once and runs one
    deterministic longest-path pass per primary input, accumulating
    mean/variance per (input, output) pair with Welford updates. *)

type result = {
  n_inputs : int;
  n_outputs : int;
  iterations : int;
  means : float array array;  (** [i].(j); [nan] if the pair is unconnected *)
  stds : float array array;
  reachable : bool array array;
  wall_seconds : float;
}

val pair_moments : result -> int -> int -> (float * float) option
(** [(mean, std)] of input [i] to output [j], [None] if the pair is
    unreachable - the Monte Carlo reference of
    [Hier_ssta.Timing_model.io_accuracy]. *)

val run : iterations:int -> seed:int -> Sampler.ctx -> result
(** Iterations are processed in fixed {!Sampler.chunk_iterations}-sized
    chunks (independent RNG substream and Welford accumulators per chunk),
    run as one {!Ssta_par.Par} region, and the per-chunk statistics are
    merged in chunk-index order. *)
