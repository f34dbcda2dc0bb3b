(** Deterministic pseudo-random number generation.

    A self-contained xoshiro256++ generator seeded through splitmix64, so that
    every experiment in the repository is reproducible from an integer seed
    without depending on the global [Random] state. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] expands [seed] with splitmix64 into a full 256-bit state. *)

val stream : seed:int -> index:int -> t
(** [stream ~seed ~index] is the [index]-th generator of a deterministic
    substream family: a pure function of [(seed, index)], independent of
    domain count or spawn order, so chunked parallel runs are reproducible.
    [index = 0] is exactly [create ~seed] (the historical sequential
    stream); higher indices derive decorrelated 64-bit seeds through
    splitmix64.  Raises [Invalid_argument] on negative [index]. *)

val copy : t -> t
(** Independent copy of the current state. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t n] is uniform on [0, n-1]; [n] must be positive. *)

val uniform : t -> float
(** Uniform float in [0, 1) with 53 random bits. *)

val gaussian : t -> float
(** Standard normal variate (polar Box-Muller with spare caching). *)

val gaussian_fill : t -> float array -> unit
(** Fill an array with independent standard normal variates. *)

val split : t -> t
(** Derive an independent child generator (for parallel or per-module
    streams) without disturbing determinism of the parent stream beyond one
    draw. *)
