(** Dense row-major matrices. *)

type t = private { rows : int; cols : int; data : float array }

val make : int -> int -> t
(** Zero matrix. *)

val init : int -> int -> (int -> int -> float) -> t
val identity : int -> t
val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit
val dims : t -> int * int
val copy : t -> t
val of_arrays : float array array -> t
val to_arrays : t -> float array array
val row : t -> int -> float array
(** Fresh copy of a row. *)

val transpose : t -> t
val mul : t -> t -> t
(** Matrix product; inner dimensions must agree. *)

val mul_vec : t -> float array -> float array
(** [mul_vec a x] is [a * x]. *)

val tmul_vec : t -> float array -> float array
(** [tmul_vec a x] is [a^T * x] (without materializing the transpose). *)

val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t
val max_abs_diff : t -> t -> float
(** Largest element-wise absolute difference (for tests). *)

val is_symmetric : ?tol:float -> t -> bool
val pp : Format.formatter -> t -> unit
