(** Independent-variable replacement (paper eq. (19) and Fig. 5 step 3).

    At design level the correlated local variables decompose as
    [p^t_l = B x^t]; restricted to the tiles of one instance this reads
    [p_l = B_n x^t], while the module model was characterized with
    [p_l = A x].  Hence [x = A^{-1} B_n x^t], and every canonical form of
    the instance's model can be rewritten over the design variables by the
    linear coefficient transform [a -> (A^{-1} B_n)^T a].

    In the normalized PCA convention (DESIGN.md) [A = U sqrt(L)], so
    [A^{-1} = L^{-1/2} U^T] restricted to the retained eigenvalues (clamped
    components carry zero coefficients in every model form, so dropping them
    is lossless).

    The [`Global_only] mode is the paper's comparison baseline: each
    instance's local PCs are mapped to its private slots of the design basis
    so different instances share only the global variables. *)

module Form_buf = Ssta_canonical.Form_buf
module Mat = Ssta_linalg.Mat

type mode = Replaced | Global_only

val matrix : Design_grid.t -> Floorplan.t -> inst:int -> Mat.t
(** The replacement matrix [M] with [x = M x^t]; dimensions
    (module tiles) x (design tiles). *)

val pc_map :
  Design_grid.t -> Floorplan.t -> mode:mode -> inst:int -> Form_buf.pc_map
(** The slot kernel's argument for instance [inst]: its {!matrix} under
    [Replaced] (so this is where repair and strict errors of the matrix
    surface), its private design slots under [Global_only]. *)

val transform_into :
  Form_buf.pc_map ->
  Form_buf.t ->
  dst:Form_buf.t ->
  slot:(int -> int) ->
  unit
(** [transform_into map forms ~dst ~slot] rewrites slot [e] of the
    module-basis slab [forms] into slot [slot e] of the design-basis slab
    [dst] with {!Form_buf.replace_into}, and counts the forms in
    [replace.forms_transformed].  Calls writing disjoint slots may run on
    different domains. *)
