(* Tests for the dense linear algebra substrate: the PCA pipeline here is
   load-bearing for the paper's eqs. (2) and (19). *)

module Vec = Ssta_linalg.Vec
module Mat = Ssta_linalg.Mat
module Sym_eig = Ssta_linalg.Sym_eig
module Pca = Ssta_linalg.Pca
module Rng = Ssta_gauss.Rng
module Robust = Ssta_robust.Robust

let close ?(tol = 1e-9) msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

let random_mat rng r c =
  Mat.init r c (fun _ _ -> Rng.gaussian rng)

let random_spd rng n =
  (* A A^T + n * I is comfortably positive definite. *)
  let a = random_mat rng n n in
  Mat.add (Mat.mul a (Mat.transpose a)) (Mat.scale (float_of_int n) (Mat.identity n))

(* ------------------------------------------------------------------ *)

let test_vec_ops () =
  close "dot" 32.0 (Vec.dot [| 1.0; 2.0; 3.0 |] [| 4.0; 5.0; 6.0 |]);
  close "norm2" 5.0 (Vec.norm2 [| 3.0; 4.0 |]);
  close "sum_sq" 25.0 (Vec.sum_sq [| 3.0; 4.0 |]);
  Alcotest.check_raises "dot length mismatch"
    (Invalid_argument "Vec.dot: length mismatch (2 vs 3)") (fun () ->
      ignore (Vec.dot [| 1.0; 2.0 |] [| 1.0; 2.0; 3.0 |]))

let test_mat_mul () =
  let a = Mat.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let b = Mat.of_arrays [| [| 5.0; 6.0 |]; [| 7.0; 8.0 |] |] in
  let c = Mat.mul a b in
  close "c00" 19.0 (Mat.get c 0 0);
  close "c01" 22.0 (Mat.get c 0 1);
  close "c10" 43.0 (Mat.get c 1 0);
  close "c11" 50.0 (Mat.get c 1 1);
  let i = Mat.identity 2 in
  close "a*I = a" 0.0 (Mat.max_abs_diff (Mat.mul a i) a)

let test_mat_transpose () =
  let rng = Rng.create ~seed:1 in
  let a = random_mat rng 4 7 in
  close "transpose involution" 0.0
    (Mat.max_abs_diff (Mat.transpose (Mat.transpose a)) a)

let test_mat_vec () =
  let rng = Rng.create ~seed:2 in
  let a = random_mat rng 5 3 in
  let x = Array.init 3 (fun _ -> Rng.gaussian rng) in
  let y1 = Mat.mul_vec a x in
  (* Compare against multiplication with a 1-column matrix. *)
  let xcol = Mat.init 3 1 (fun i _ -> x.(i)) in
  let y2 = Mat.mul a xcol in
  Array.iteri (fun i v -> close ~tol:1e-12 "mul_vec" (Mat.get y2 i 0) v) y1;
  let z1 = Mat.tmul_vec a (Array.init 5 (fun i -> float_of_int i)) in
  let z2 = Mat.mul_vec (Mat.transpose a) (Array.init 5 (fun i -> float_of_int i)) in
  Array.iteri (fun i v -> close ~tol:1e-12 "tmul_vec" z2.(i) v) z1

let test_eig_diagonal () =
  let c = Mat.of_arrays [| [| 3.0; 0.0 |]; [| 0.0; 1.0 |] |] in
  let { Sym_eig.values; vectors } = Sym_eig.decompose c in
  close "lambda0" 3.0 values.(0);
  close "lambda1" 1.0 values.(1);
  close "v00" 1.0 (abs_float (Mat.get vectors 0 0))

let test_eig_known_2x2 () =
  (* [[2,1],[1,2]] has eigenvalues 3 and 1. *)
  let c = Mat.of_arrays [| [| 2.0; 1.0 |]; [| 1.0; 2.0 |] |] in
  let { Sym_eig.values; _ } = Sym_eig.decompose c in
  close ~tol:1e-10 "lambda0" 3.0 values.(0);
  close ~tol:1e-10 "lambda1" 1.0 values.(1)

let test_eig_reconstruct () =
  let rng = Rng.create ~seed:4 in
  let a = random_mat rng 12 12 in
  let c = Mat.add a (Mat.transpose a) in
  let d = Sym_eig.decompose c in
  close ~tol:1e-7 "reconstruction" 0.0
    (Mat.max_abs_diff (Sym_eig.reconstruct d) c)

let test_eig_orthonormal () =
  let rng = Rng.create ~seed:5 in
  let c = random_spd rng 10 in
  let { Sym_eig.vectors; values } = Sym_eig.decompose c in
  close ~tol:1e-8 "V^T V = I" 0.0
    (Mat.max_abs_diff (Mat.mul (Mat.transpose vectors) vectors) (Mat.identity 10));
  (* Sorted decreasing. *)
  for i = 0 to 8 do
    Alcotest.(check bool) "sorted" true (values.(i) >= values.(i + 1))
  done

let test_pca_covariance () =
  let rng = Rng.create ~seed:6 in
  let c = random_spd rng 9 in
  let p = Pca.of_covariance c in
  close ~tol:1e-7 "factor factor^T = C" 0.0
    (Mat.max_abs_diff (Pca.covariance p) c)

let test_pca_row_variance () =
  let rng = Rng.create ~seed:7 in
  let c = random_spd rng 6 in
  let p = Pca.of_covariance c in
  for i = 0 to 5 do
    let row = Pca.coeff_row p i in
    close ~tol:1e-7
      (Printf.sprintf "row %d variance = C_ii" i)
      (Mat.get c i i) (Vec.sum_sq row)
  done

let test_pca_pinv () =
  let rng = Rng.create ~seed:8 in
  let c = random_spd rng 7 in
  let p = Pca.of_covariance c in
  (* pinv_factor * factor should be the identity on retained components. *)
  let prod = Mat.mul p.Pca.pinv_factor p.Pca.factor in
  close ~tol:1e-7 "pinv . factor = I" 0.0
    (Mat.max_abs_diff prod (Mat.identity p.Pca.retained))

let test_pca_sample_covariance () =
  (* Statistical: the sampled vectors have covariance close to C. *)
  let c =
    Mat.of_arrays
      [| [| 1.0; 0.6; 0.2 |]; [| 0.6; 1.0; 0.5 |]; [| 0.2; 0.5; 1.0 |] |]
  in
  let p = Pca.of_covariance c in
  let rng = Rng.create ~seed:9 in
  let n = 40_000 in
  let acc = Mat.make 3 3 in
  for _ = 1 to n do
    let x = Pca.sample p rng in
    for i = 0 to 2 do
      for j = 0 to 2 do
        Mat.set acc i j (Mat.get acc i j +. (x.(i) *. x.(j)))
      done
    done
  done;
  let emp = Mat.scale (1.0 /. float_of_int n) acc in
  Alcotest.(check bool)
    "sample covariance close" true
    (Mat.max_abs_diff emp c < 0.03)

let test_pca_clamps_negative () =
  (* A slightly indefinite matrix must be repaired, not propagated. *)
  let c =
    Mat.of_arrays [| [| 1.0; 1.0 +. 1e-6 |]; [| 1.0 +. 1e-6; 1.0 |] |]
  in
  let p = Pca.of_covariance c in
  Alcotest.(check bool) "all eigenvalues >= 0" true
    (Array.for_all (fun v -> v >= 0.0) p.Pca.values);
  Alcotest.(check int) "one retained" 1 p.Pca.retained

(* ------------------------------------------------------------------ *)
(* Jacobi oracle                                                        *)
(* ------------------------------------------------------------------ *)

(* The array-of-arrays cyclic Jacobi that [Sym_eig.decompose] replaced,
   kept verbatim as the oracle: the flat-storage implementation must
   reproduce its values and vectors bit for bit. *)
module Oracle = struct
  module Robust = Ssta_robust.Robust

  type decomposition = { values : float array; vectors : Mat.t }

  let jacobi_residual = Robust.counter "robust.jacobi_residual"

  let decompose ?(max_sweeps = 64) c =
    let n, m = Mat.dims c in
    if n <> m then invalid_arg "Sym_eig.decompose: matrix not square";
    let scale =
      let s = ref 1e-300 in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          let x = Mat.get c i j in
          if not (Robust.is_finite x) then
            Robust.fail ~subsystem:"linalg.sym_eig" ~operation:"decompose"
              ~indices:[ i; j ] ~values:[ x ] "non-finite matrix entry";
          s := Float.max !s (abs_float x)
        done
      done;
      !s
    in
    if not (Mat.is_symmetric ~tol:(1e-8 *. scale) c) then begin
      (* Name the worst-offending entry pair in the error. *)
      let bi = ref 0 and bj = ref 0 and bd = ref 0.0 in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          let d = abs_float (Mat.get c i j -. Mat.get c j i) in
          if d > !bd then begin
            bd := d;
            bi := i;
            bj := j
          end
        done
      done;
      Robust.fail ~subsystem:"linalg.sym_eig" ~operation:"decompose"
        ~indices:[ !bi; !bj ]
        ~values:[ Mat.get c !bi !bj; Mat.get c !bj !bi ]
        "matrix not symmetric"
    end;
    let a = Mat.to_arrays c in
    let v = Mat.to_arrays (Mat.identity n) in
    let off_norm () =
      let s = ref 0.0 in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          s := !s +. (a.(i).(j) *. a.(i).(j))
        done
      done;
      sqrt (2.0 *. !s)
    in
    let eps = 1e-13 *. float_of_int n *. scale in
    let sweep = ref 0 in
    while off_norm () > eps && !sweep < max_sweeps do
      incr sweep;
      for p = 0 to n - 2 do
        for q = p + 1 to n - 1 do
          let apq = a.(p).(q) in
          if abs_float apq > 1e-300 then begin
            let app = a.(p).(p) and aqq = a.(q).(q) in
            let tau = (aqq -. app) /. (2.0 *. apq) in
            let t =
              let sign = if tau >= 0.0 then 1.0 else -1.0 in
              sign /. (abs_float tau +. sqrt (1.0 +. (tau *. tau)))
            in
            let cth = 1.0 /. sqrt (1.0 +. (t *. t)) in
            let sth = t *. cth in
            (* Update rows/cols p and q of [a]. *)
            for k = 0 to n - 1 do
              let akp = a.(k).(p) and akq = a.(k).(q) in
              a.(k).(p) <- (cth *. akp) -. (sth *. akq);
              a.(k).(q) <- (sth *. akp) +. (cth *. akq)
            done;
            for k = 0 to n - 1 do
              let apk = a.(p).(k) and aqk = a.(q).(k) in
              a.(p).(k) <- (cth *. apk) -. (sth *. aqk);
              a.(q).(k) <- (sth *. apk) +. (cth *. aqk)
            done;
            for k = 0 to n - 1 do
              let vkp = v.(k).(p) and vkq = v.(k).(q) in
              v.(k).(p) <- (cth *. vkp) -. (sth *. vkq);
              v.(k).(q) <- (sth *. vkp) +. (cth *. vkq)
            done
          end
        done
      done
    done;
    (* The sweep cap is a hard iteration bound; verify the residual actually
       converged.  For finite symmetric input cyclic Jacobi converges well
       inside 64 sweeps, so this fires only on pathological inputs: Strict
       raises, Repair/Warn accept the partial diagonalisation and count it. *)
    let residual = off_norm () in
    if residual > eps then
      Robust.repair jacobi_residual
        (Robust.context ~subsystem:"linalg.sym_eig" ~operation:"decompose"
           ~indices:[ !sweep; max_sweeps ]
           ~values:[ residual; eps ]
           "sweep cap reached with off-diagonal residual above tolerance");
    let order = Array.init n (fun i -> i) in
    Array.sort (fun i j -> compare a.(j).(j) a.(i).(i)) order;
    let values = Array.map (fun i -> a.(i).(i)) order in
    let vectors = Mat.init n n (fun r c_ -> v.(r).(order.(c_))) in
    { values; vectors }
end

(* Every bit of a decomposition, values then vectors row-major. *)
let eig_bits values vectors =
  let n = Array.length values in
  Array.append
    (Array.map Int64.bits_of_float values)
    (Array.init (n * n) (fun k ->
         Int64.bits_of_float (Mat.get vectors (k / n) (k mod n))))

let eig_digest values vectors =
  Digest.to_hex
    (Digest.string
       (String.concat " "
          (Array.to_list
             (Array.map (Printf.sprintf "%Lx") (eig_bits values vectors)))))

(* Runs [f] under the Repair policy, returning its result and how many
   times it bumped [robust.jacobi_residual]. *)
let residual_repairs f =
  Robust.with_policy Robust.Repair @@ fun () ->
  let before = Robust.value Oracle.jacobi_residual in
  let r = f () in
  (r, Robust.value Oracle.jacobi_residual - before)

let check_against_oracle ?max_sweeps msg c =
  let o, o_repairs =
    residual_repairs (fun () -> Oracle.decompose ?max_sweeps c)
  in
  let d, d_repairs =
    residual_repairs (fun () -> Sym_eig.decompose ?max_sweeps c)
  in
  Alcotest.(check int) (msg ^ ": residual repairs") o_repairs d_repairs;
  Alcotest.(check bool) (msg ^ ": bitwise equal to the oracle") true
    (eig_bits o.Oracle.values o.Oracle.vectors
    = eig_bits d.Sym_eig.values d.Sym_eig.vectors);
  d_repairs

(* Random symmetric matrices of the shapes PCA meets: general, diagonal
   (with repeats), rank-deficient, repeated eigenvalues, and symmetric only
   to within the input tolerance (the lower triangle must be rotated too). *)
let random_symmetric ~seed ~kind n =
  let rng = Rng.create ~seed in
  let lowrank r =
    let b = random_mat rng n r in
    Mat.mul b (Mat.transpose b)
  in
  match kind with
  | 0 ->
      let a = random_mat rng n n in
      Mat.add a (Mat.transpose a)
  | 1 ->
      let d = Array.init n (fun _ -> float_of_int (Rng.int rng 4)) in
      Mat.init n n (fun i j -> if i = j then d.(i) else 0.0)
  | 2 -> lowrank (n / 3)
  | 3 -> Mat.add (Mat.scale 2.0 (Mat.identity n)) (lowrank 2)
  | _ ->
      let c = random_spd rng n in
      Mat.init n n (fun i j ->
          let x = Mat.get c i j in
          if i < j then x *. (1.0 +. 1e-12) else x)

let eig_oracle_qcheck =
  QCheck.Test.make ~count:200 ~name:"decompose is bitwise the Jacobi oracle"
    QCheck.(quad (int_range 0 40) (int_range 0 4) bool small_nat)
    (fun (n, kind, capped, seed) ->
      let c = random_symmetric ~seed ~kind n in
      let max_sweeps = if capped then Some 1 else None in
      ignore
        (check_against_oracle ?max_sweeps
           (Printf.sprintf "n=%d kind=%d capped=%b seed=%d" n kind capped seed)
           c);
      true)

(* The input checks raise the oracle's structured errors: non-finite entry,
   asymmetry (naming the worst pair), and under Strict the sweep cap. *)
let test_eig_oracle_errors () =
  let error f =
    match f () with
    | _ -> Alcotest.fail "no error raised"
    | exception Robust.Error ctx -> Robust.to_string ctx
  in
  let same msg ?max_sweeps c =
    Alcotest.(check string) msg
      (error (fun () -> ignore (Oracle.decompose ?max_sweeps c)))
      (error (fun () -> ignore (Sym_eig.decompose ?max_sweeps c)))
  in
  let c = random_spd (Rng.create ~seed:10) 6 in
  let poke i j f =
    Mat.init 6 6 (fun r k ->
        let x = Mat.get c r k in
        if (r, k) = (i, j) then f x else x)
  in
  same "non-finite" (poke 4 1 (fun _ -> Float.infinity));
  same "asymmetric" (poke 2 5 (fun x -> x +. 0.5));
  Robust.with_policy Robust.Strict @@ fun () ->
  same "sweep cap under Strict" ~max_sweeps:1 c

(* The real design-grid covariance matrices of the hierarchical flow:
   extracted c6288 modules abutted 2x2 (Fig. 7, 100 tiles) and 3x3 (the
   chain design, 225 tiles; its wiring does not change the grid). *)
module H = Hier_ssta

let c6288 =
  lazy
    (let build =
       Ssta_timing.Build.characterize (Ssta_circuit.Iscas.build "c6288")
     in
     (build, H.Extract.extract build))

let design_covariance fp =
  Ssta_variation.Basis.local_covariance_matrix
    (H.Design_grid.build fp).H.Design_grid.basis

let fig7_floorplan () =
  let build, model = Lazy.force c6288 in
  H.Floorplan.mult_grid ~label:"c6288" ~build ~model ()

let fig7_covariance = lazy (design_covariance (fig7_floorplan ()))

let soc9_covariance =
  lazy
    (let build, model = Lazy.force c6288 in
     let mdie = model.H.Timing_model.die in
     let module Tile = Ssta_variation.Tile in
     let w = Tile.width mdie and h = Tile.height mdie in
     let inst k =
       {
         H.Floorplan.label = Printf.sprintf "c6288_%d" k;
         build = Some build;
         model;
         origin = (float_of_int (k / 3) *. w, float_of_int (k mod 3) *. h);
       }
     in
     design_covariance
       (H.Floorplan.create
          ~die:(Tile.make ~x0:0.0 ~y0:0.0 ~x1:(3.0 *. w) ~y1:(3.0 *. h))
          ~instances:(Array.init 9 inst) ~connections:[||]))

let test_eig_oracle_fig7 () =
  let c = Lazy.force fig7_covariance in
  Alcotest.(check (pair int int)) "100 tiles" (100, 100) (Mat.dims c);
  ignore (check_against_oracle "fig7" c);
  Alcotest.(check int) "one sweep leaves a residual" 1
    (check_against_oracle ~max_sweeps:1 "fig7, one sweep" c);
  (* Recorded from the array-of-arrays implementation, so the oracle and
     [decompose] cannot drift together. *)
  let d = Sym_eig.decompose c in
  Alcotest.(check string) "fig7 PCA bits" "4a612abd1e5e84e53505c1023169c6d4"
    (eig_digest d.Sym_eig.values d.Sym_eig.vectors)

let test_eig_oracle_soc9 () =
  let c = Lazy.force soc9_covariance in
  Alcotest.(check (pair int int)) "225 tiles" (225, 225) (Mat.dims c);
  ignore (check_against_oracle "3x3 chain" c)

let mat_mul_assoc_qcheck =
  QCheck.Test.make ~count:100 ~name:"matrix multiplication associates"
    QCheck.(int_range 1 6)
    (fun n ->
      let rng = Rng.create ~seed:(n + 100) in
      let a = random_mat rng n n
      and b = random_mat rng n n
      and c = random_mat rng n n in
      Mat.max_abs_diff (Mat.mul (Mat.mul a b) c) (Mat.mul a (Mat.mul b c))
      < 1e-9)

let q = QCheck_alcotest.to_alcotest

let suites =
  [
    ( "linalg",
      [
        Alcotest.test_case "vector ops" `Quick test_vec_ops;
        Alcotest.test_case "matrix multiply" `Quick test_mat_mul;
        Alcotest.test_case "transpose involution" `Quick test_mat_transpose;
        Alcotest.test_case "matrix-vector" `Quick test_mat_vec;
        Alcotest.test_case "eig diagonal" `Quick test_eig_diagonal;
        Alcotest.test_case "eig known 2x2" `Quick test_eig_known_2x2;
        Alcotest.test_case "eig reconstruct" `Quick test_eig_reconstruct;
        Alcotest.test_case "eig orthonormal" `Quick test_eig_orthonormal;
        Alcotest.test_case "pca covariance" `Quick test_pca_covariance;
        Alcotest.test_case "pca row variance" `Quick test_pca_row_variance;
        Alcotest.test_case "pca pseudo-inverse" `Quick test_pca_pinv;
        Alcotest.test_case "pca sample covariance" `Slow
          test_pca_sample_covariance;
        Alcotest.test_case "pca clamps negatives" `Quick
          test_pca_clamps_negative;
        Alcotest.test_case "eig oracle fig7 design grid" `Quick
          test_eig_oracle_fig7;
        Alcotest.test_case "eig oracle 3x3 design grid" `Quick
          test_eig_oracle_soc9;
        Alcotest.test_case "eig oracle input errors" `Quick
          test_eig_oracle_errors;
        q eig_oracle_qcheck;
        q mat_mul_assoc_qcheck;
      ] );
  ]
