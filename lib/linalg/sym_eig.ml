module Robust = Ssta_robust.Robust
module Obs = Ssta_obs.Obs

type decomposition = { values : float array; vectors : Mat.t }

let jacobi_residual = Robust.counter "robust.jacobi_residual"
let jacobi_sweeps = Obs.counter "linalg.jacobi_sweeps"
let jacobi_rotations = Obs.counter "linalg.jacobi_rotations"

(* Cyclic Jacobi: repeatedly zero the largest off-diagonal entries with Givens
   rotations until the off-diagonal Frobenius mass is negligible. *)
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
  (* [a] is the working matrix, row-major: a.(i*n + j) = a_ij.  [vt] holds
     the eigenvectors transposed, vt.(j*n + k) = v_kj, so rotating columns
     p and q of V is a contiguous pass over rows p and q of [vt]. *)
  let a = Array.copy c.Mat.data in
  let vt = Array.make (n * n) 0.0 in
  for i = 0 to n - 1 do
    vt.((i * n) + i) <- 1.0
  done;
  let off_norm () =
    let s = ref 0.0 in
    for i = 0 to n - 1 do
      let row = i * n in
      for j = i + 1 to n - 1 do
        let x = Array.unsafe_get a (row + j) in
        s := !s +. (x *. x)
      done
    done;
    sqrt (2.0 *. !s)
  in
  let eps = 1e-13 *. float_of_int n *. scale in
  let sweep = ref 0 and rotations = ref 0 in
  while off_norm () > eps && !sweep < max_sweeps do
    incr sweep;
    for p = 0 to n - 2 do
      let rp = p * n in
      for q = p + 1 to n - 1 do
        let rq = q * n in
        let apq = a.(rp + q) in
        if abs_float apq > 1e-300 then begin
          incr rotations;
          let app = a.(rp + p) and aqq = a.(rq + q) in
          let tau = (aqq -. app) /. (2.0 *. apq) in
          let t =
            let sign = if tau >= 0.0 then 1.0 else -1.0 in
            sign /. (abs_float tau +. sqrt (1.0 +. (tau *. tau)))
          in
          let cth = 1.0 /. sqrt (1.0 +. (t *. t)) in
          let sth = t *. cth in
          (* Columns p and q of [a]: a strided pass, row offset [r]. *)
          let r = ref 0 in
          for _ = 0 to n - 1 do
            let kp = !r + p and kq = !r + q in
            let akp = Array.unsafe_get a kp and akq = Array.unsafe_get a kq in
            Array.unsafe_set a kp ((cth *. akp) -. (sth *. akq));
            Array.unsafe_set a kq ((sth *. akp) +. (cth *. akq));
            r := !r + n
          done;
          (* Rows p and q of [a] and of [vt], fused: both contiguous. *)
          for k = 0 to n - 1 do
            let pk = rp + k and qk = rq + k in
            let apk = Array.unsafe_get a pk and aqk = Array.unsafe_get a qk in
            Array.unsafe_set a pk ((cth *. apk) -. (sth *. aqk));
            Array.unsafe_set a qk ((sth *. apk) +. (cth *. aqk));
            let vkp = Array.unsafe_get vt pk and vkq = Array.unsafe_get vt qk in
            Array.unsafe_set vt pk ((cth *. vkp) -. (sth *. vkq));
            Array.unsafe_set vt qk ((sth *. vkp) +. (cth *. vkq))
          done
        end
      done
    done
  done;
  if Obs.enabled () then begin
    Obs.add jacobi_sweeps !sweep;
    Obs.add jacobi_rotations !rotations
  end;
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
  let diag i = a.((i * n) + i) in
  let order = Array.init n (fun i -> i) in
  Array.sort (fun i j -> compare (diag j) (diag i)) order;
  let values = Array.map diag order in
  let vectors = Mat.init n n (fun r c_ -> vt.((order.(c_) * n) + r)) in
  { values; vectors }

let reconstruct { values; vectors } =
  let n = Array.length values in
  let scaled =
    Mat.init n n (fun i j -> Mat.get vectors i j *. values.(j))
  in
  Mat.mul scaled (Mat.transpose vectors)
