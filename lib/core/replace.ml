module Form_buf = Ssta_canonical.Form_buf
module Mat = Ssta_linalg.Mat
module Pca = Ssta_linalg.Pca
module Basis = Ssta_variation.Basis

type mode = Replaced | Global_only

module Obs = Ssta_obs.Obs
module Robust = Ssta_robust.Robust

let c_forms_transformed = Obs.counter "replace.forms_transformed"
let nan_sanitized = Robust.counter "robust.nan_sanitized"

(* The substitution matrix M = A^{-1} B_n of paper eq. (18): x = M x^t
   rewrites a module-basis form over the design basis.  One span per
   instance matrix - this is the design-level flow's dense-linear-algebra
   phase (pinv application + the m x n product). *)
let matrix (dg : Design_grid.t) (fp : Floorplan.t) ~inst =
  Obs.with_span "replace.matrix" @@ fun () ->
  let model = fp.Floorplan.instances.(inst).Floorplan.model in
  let mbasis = model.Timing_model.basis in
  let pca = mbasis.Basis.pca in
  let n = Basis.n_tiles mbasis in
  let m_design = Array.length dg.Design_grid.tiles in
  let offset = dg.Design_grid.instance_tile_offset.(inst) in
  let dpca = dg.Design_grid.basis.Basis.pca in
  (* B_n: the design factor rows of this instance's tiles (n x m). *)
  let bn =
    Mat.init n m_design (fun i j ->
        Mat.get dpca.Pca.factor (offset + i) j)
  in
  (* A^{-1} padded with zero rows for clamped eigen components (n x n). *)
  let pinv = pca.Pca.pinv_factor in
  let retained = pca.Pca.retained in
  let a_inv =
    Mat.init n n (fun i j -> if i < retained then Mat.get pinv i j else 0.0)
  in
  let m = Mat.mul a_inv bn in
  (* Validated boundary: a non-finite substitution entry would silently
     poison every transformed form of the instance.  Strict raises naming
     (instance, row, column); Repair/Warn zero the offending entries into
     a copy and count them.  Clean matrices pass through unchanged. *)
  let bad = ref 0 in
  for i = 0 to n - 1 do
    for j = 0 to m_design - 1 do
      let x = Mat.get m i j in
      if not (Robust.is_finite x) then begin
        Robust.repair nan_sanitized
          (Robust.context ~subsystem:"replace" ~operation:"matrix"
             ~indices:[ inst; i; j ] ~values:[ x ]
             "non-finite substitution-matrix entry (instance, row, column)");
        incr bad
      end
    done
  done;
  if !bad = 0 then m
  else
    Mat.init n m_design (fun i j ->
        let x = Mat.get m i j in
        if Robust.is_finite x then x else 0.0)

(* Identity into the instance's private design slots: within-module
   correlation is preserved, cross-module local correlation dropped. *)
let place (dg : Design_grid.t) ~inst =
  Form_buf.Place
    {
      offset = dg.Design_grid.instance_tile_offset.(inst);
      tiles = dg.Design_grid.instance_n_tiles.(inst);
    }

let pc_map dg fp ~mode ~inst =
  match mode with
  | Replaced -> Form_buf.Substitute (matrix dg fp ~inst)
  | Global_only -> place dg ~inst

let transform_into map forms ~dst ~slot =
  let n = Form_buf.length forms in
  Obs.add c_forms_transformed n;
  for e = 0 to n - 1 do
    Form_buf.replace_into ~map ~src:forms ~isrc:e ~dst ~idst:(slot e)
  done
