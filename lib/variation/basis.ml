module Form = Ssta_canonical.Form
module Mat = Ssta_linalg.Mat
module Pca = Ssta_linalg.Pca
module Rng = Ssta_gauss.Rng
module Robust = Ssta_robust.Robust

let degenerate_tiles = Robust.counter "robust.degenerate_tiles"

type t = {
  n_params : int;
  corr : Correlation.model;
  pitch : float;
  tiles : Tile.t array;
  pca : Pca.t;
  dims : Form.dims;
}

let local_cov_matrix corr pitch tiles =
  let n = Array.length tiles in
  Mat.init n n (fun i j ->
      if i = j then 1.0
      else
        let d = Tile.center_distance tiles.(i) tiles.(j) /. pitch in
        Correlation.normalized_local_correlation corr d)

let make ~n_params ~corr ~pitch tiles =
  if n_params <= 0 then invalid_arg "Basis.make: n_params must be positive";
  if Array.length tiles = 0 then invalid_arg "Basis.make: no tiles";
  if pitch <= 0.0 then invalid_arg "Basis.make: pitch must be positive";
  (* Coincident tiles make the local covariance exactly rank-deficient
     (duplicate rows), which PCA truncation would silently absorb just as
     it absorbs legitimate small eigenvalues - so the defect is detected
     here at its cause.  Any tile partition has distinct centers; two
     tiles closer than 1e-6 of a pitch mean the floorplan or grid was
     corrupted.  Strict raises naming the pair; Repair/Warn count the
     event and let PCA truncate the duplicated direction. *)
  let n_t = Array.length tiles in
  let coincident_tol = 1e-6 *. pitch in
  for i = 0 to n_t - 1 do
    for j = i + 1 to n_t - 1 do
      let d = Tile.center_distance tiles.(i) tiles.(j) in
      if d < coincident_tol then
        Robust.repair degenerate_tiles
          (Robust.context ~subsystem:"variation.basis" ~operation:"make"
             ~indices:[ i; j ] ~values:[ d; pitch ]
             "coincident tiles: local covariance is rank-deficient \
              (duplicate rows)")
    done
  done;
  let c = local_cov_matrix corr pitch tiles in
  let pca = Pca.of_covariance c in
  let n_tiles = Array.length tiles in
  {
    n_params;
    corr;
    pitch;
    tiles;
    pca;
    dims = { Form.n_globals = n_params; n_pcs = n_params * n_tiles };
  }

let of_parts ~n_params ~corr ~pitch ~tiles ~pca =
  if n_params <= 0 || Array.length tiles = 0 || pitch <= 0.0 then
    invalid_arg "Basis.of_parts: invalid parameters";
  if pca.Pca.dim <> Array.length tiles then
    invalid_arg "Basis.of_parts: PCA dimension does not match tiles";
  {
    n_params;
    corr;
    pitch;
    tiles;
    pca;
    dims =
      { Form.n_globals = n_params; n_pcs = n_params * Array.length tiles };
  }

let n_tiles t = Array.length t.tiles
let local_covariance_matrix t = local_cov_matrix t.corr t.pitch t.tiles

let delay_form t ~nominal ~tile ~sens ~extra_random_sigma =
  if Array.length sens <> t.n_params then
    invalid_arg "Basis.delay_form: sensitivity count mismatch";
  if tile < 0 || tile >= n_tiles t then
    invalid_arg "Basis.delay_form: tile index out of range";
  let nt = n_tiles t in
  let sg = sqrt t.corr.Correlation.var_global in
  let sl = sqrt t.corr.Correlation.var_local in
  let vr = t.corr.Correlation.var_random in
  let row = Pca.coeff_row t.pca tile in
  let globals =
    Array.init t.n_params (fun k -> nominal *. sens.(k) *. sg)
  in
  let pcs = Array.make (t.n_params * nt) 0.0 in
  for k = 0 to t.n_params - 1 do
    let scale = nominal *. sens.(k) *. sl in
    let base = k * nt in
    for i = 0 to nt - 1 do
      pcs.(base + i) <- scale *. row.(i)
    done
  done;
  let rand_var =
    Array.fold_left
      (fun acc s -> acc +. (nominal *. s *. nominal *. s *. vr))
      (extra_random_sigma *. extra_random_sigma)
      sens
  in
  Form.make ~mean:nominal ~globals ~pcs ~rand:(sqrt rand_var)

let sample_globals t rng = Array.init t.n_params (fun _ -> Rng.gaussian rng)

let sample_local_fields t rng =
  Array.init t.n_params (fun _ -> Pca.sample t.pca rng)

let tile_of_point t p =
  let rec find i =
    if i >= Array.length t.tiles then
      invalid_arg "Basis.tile_of_point: point outside every tile"
    else if Tile.contains t.tiles.(i) p then i
    else find (i + 1)
  in
  find 0
