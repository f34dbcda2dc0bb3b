(** Monte Carlo reference for the circuit delay distribution (the paper's
    golden standard: "Monte Carlo simulation with 10,000 iterations using the
    flattened netlist"). *)

type result = {
  delays : float array;  (** one design delay (max over outputs) per sample *)
  wall_seconds : float;
}

val run : iterations:int -> seed:int -> Sampler.ctx -> result
(** Sample batches are cut into fixed {!Sampler.chunk_iterations}-sized
    chunks, each drawing from its own {!Ssta_gauss.Rng.stream} substream
    and run as one {!Ssta_par.Par} region. *)
