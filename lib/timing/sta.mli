(** Deterministic (corner / sample) static timing analysis on a timing graph
    with plain float edge delays.  This is the inner loop of the Monte Carlo
    engine and the corner-STA baseline of the examples. *)

val forward : Tgraph.t -> weights:float array -> float array
(** Arrival times from all primary inputs (inputs start at 0); vertices not
    reachable from any input get [neg_infinity]. *)

val forward_from_into :
  Tgraph.t -> weights:float array -> int -> float array -> unit
(** Arrival times exclusively from one input vertex, written into a
    caller buffer of length [n_vertices] (contents overwritten; vertices
    the input does not reach get [neg_infinity]). *)

val design_delay : Tgraph.t -> weights:float array -> float
(** Maximum arrival over primary outputs. *)
