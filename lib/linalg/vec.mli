(** Dense float vectors (thin helpers over [float array]). *)

val dot : float array -> float array -> float
(** Inner product; the arrays must have equal length. *)

val scale : float -> float array -> float array
(** Fresh scaled copy. *)

val norm2 : float array -> float
(** Euclidean norm. *)

val sum_sq : float array -> float
(** Sum of squares (squared Euclidean norm). *)
