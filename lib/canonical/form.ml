module Normal = Ssta_gauss.Normal
module Vec = Ssta_linalg.Vec

type t = {
  mean : float;
  globals : float array;
  pcs : float array;
  rand : float;
}

type dims = { n_globals : int; n_pcs : int }

let dims t =
  { n_globals = Array.length t.globals; n_pcs = Array.length t.pcs }

let constant d v =
  {
    mean = v;
    globals = Array.make d.n_globals 0.0;
    pcs = Array.make d.n_pcs 0.0;
    rand = 0.0;
  }

let zero d = constant d 0.0

let make ~mean ~globals ~pcs ~rand =
  if rand < 0.0 then invalid_arg "Form.make: negative random coefficient";
  { mean; globals; pcs; rand }

let variance t = Vec.sum_sq t.globals +. Vec.sum_sq t.pcs +. (t.rand *. t.rand)
let std t = sqrt (variance t)
let covariance a b = Vec.dot a.globals b.globals +. Vec.dot a.pcs b.pcs

let correlation a b =
  let d = std a *. std b in
  if d <= 0.0 then 0.0 else covariance a b /. d

let add a b =
  {
    mean = a.mean +. b.mean;
    globals = Vec.add a.globals b.globals;
    pcs = Vec.add a.pcs b.pcs;
    rand = sqrt ((a.rand *. a.rand) +. (b.rand *. b.rand));
  }

let add_const a c = { a with mean = a.mean +. c }

let scale alpha a =
  {
    mean = alpha *. a.mean;
    globals = Vec.scale alpha a.globals;
    pcs = Vec.scale alpha a.pcs;
    rand = abs_float alpha *. a.rand;
  }

let clark a b =
  Normal.clark_max ~mean_a:a.mean ~var_a:(variance a) ~mean_b:b.mean
    ~var_b:(variance b) ~cov:(covariance a b)

let tightness a b = (clark a b).Normal.tightness

(* [tightness (add a f) b] without building the sum: every element of
   [a + f] is formed exactly as [Vec.add] forms it and folded in the same
   order as [Vec.sum_sq]/[Vec.dot], and the sum's random part goes through
   the same [sqrt] then square, so the result is bit-identical. *)
let tightness_of_sum a f b =
  let ng = Array.length a.globals and np = Array.length a.pcs in
  if Array.length f.globals <> ng || Array.length b.globals <> ng
     || Array.length f.pcs <> np || Array.length b.pcs <> np
  then invalid_arg "Form.tightness_of_sum: dimension mismatch";
  let sq_g = ref 0.0 and dot_g = ref 0.0 in
  for i = 0 to ng - 1 do
    let s = Array.unsafe_get a.globals i +. Array.unsafe_get f.globals i in
    sq_g := !sq_g +. (s *. s);
    dot_g := !dot_g +. (s *. Array.unsafe_get b.globals i)
  done;
  let sq_p = ref 0.0 and dot_p = ref 0.0 in
  for i = 0 to np - 1 do
    let s = Array.unsafe_get a.pcs i +. Array.unsafe_get f.pcs i in
    sq_p := !sq_p +. (s *. s);
    dot_p := !dot_p +. (s *. Array.unsafe_get b.pcs i)
  done;
  let rand = sqrt ((a.rand *. a.rand) +. (f.rand *. f.rand)) in
  (Normal.clark_max ~mean_a:(a.mean +. f.mean)
     ~var_a:(!sq_g +. !sq_p +. (rand *. rand))
     ~mean_b:b.mean ~var_b:(variance b)
     ~cov:(!dot_g +. !dot_p))
    .Normal.tightness

let max2 a b =
  let { Normal.tightness = tp; mean; variance = target_var } = clark a b in
  if tp >= 1.0 then a
  else if tp <= 0.0 then b
  else begin
    let globals = Vec.lerp tp a.globals b.globals in
    let pcs = Vec.lerp tp a.pcs b.pcs in
    let linear_var = Vec.sum_sq globals +. Vec.sum_sq pcs in
    let rand = sqrt (Float.max 0.0 (target_var -. linear_var)) in
    { mean; globals; pcs; rand }
  end

let max_list = function
  | [] -> invalid_arg "Form.max_list: empty list"
  | x :: rest -> List.fold_left max2 x rest

let cdf t x =
  let s = std t in
  if s <= 0.0 then if x >= t.mean then 1.0 else 0.0
  else Normal.cdf ((x -. t.mean) /. s)

let quantile t p = t.mean +. (std t *. Normal.quantile p)

let sample t ~globals ~pcs ~rand =
  t.mean +. Vec.dot t.globals globals +. Vec.dot t.pcs pcs +. (t.rand *. rand)

let equal ?(tol = 1e-9) a b =
  let close x y = abs_float (x -. y) <= tol in
  close a.mean b.mean && close a.rand b.rand
  && Array.length a.globals = Array.length b.globals
  && Array.length a.pcs = Array.length b.pcs
  && Array.for_all2 close a.globals b.globals
  && Array.for_all2 close a.pcs b.pcs

let pp ppf t =
  Format.fprintf ppf "@[<h>%.4f (sigma=%.4f; g=[%a]; |pcs|=%.4f; r=%.4f)@]"
    t.mean (std t)
    (Format.pp_print_array
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
       (fun ppf v -> Format.fprintf ppf "%.4f" v))
    t.globals (Vec.norm2 t.pcs) t.rand

(* Validated boundary of the robust layer: [Extract], [Hier_analysis] and
   [Replace] pass their incoming form arrays through here before entering
   the kernels.  Detection is read-only and clean arrays are returned
   physically unchanged, so the clean path is bit-identical under every
   policy; the copy is made lazily on the first repaired form. *)

module Robust = Ssta_robust.Robust

let nan_sanitized = Robust.counter "robust.nan_sanitized"
let zero_variance_arcs = Robust.counter "robust.zero_variance_arcs"

(* One pass per form accumulating the coefficient sum (self-subtraction
   catches NaN/Inf anywhere) and the squared-coefficient sum (exact zero
   variance with a positive mean marks a statistically degenerate arc -
   every characterized arc carries variation; interconnect constants have
   mean 0 and are exempt). *)
let classify_form f =
  let s = ref (f.mean +. f.rand) in
  let q = ref (f.rand *. f.rand) in
  for i = 0 to Array.length f.globals - 1 do
    let x = f.globals.(i) in
    s := !s +. x;
    q := !q +. (x *. x)
  done;
  for i = 0 to Array.length f.pcs - 1 do
    let x = f.pcs.(i) in
    s := !s +. x;
    q := !q +. (x *. x)
  done;
  if !s -. !s <> 0.0 then `Nonfinite
  else if f.mean > 0.0 && !q = 0.0 then `Zero_variance
  else `Ok

let repair_form f =
  let fin x = if Robust.is_finite x then x else 0.0 in
  {
    mean = fin f.mean;
    globals = Array.map fin f.globals;
    pcs = Array.map fin f.pcs;
    rand = (let r = fin f.rand in if r > 0.0 then r else 0.0);
  }

let sanitize_forms ~subsystem ~operation forms =
  let n = Array.length forms in
  let fixed = ref None in
  for i = 0 to n - 1 do
    let f = forms.(i) in
    match classify_form f with
    | `Ok -> ()
    | `Zero_variance ->
        Robust.repair zero_variance_arcs
          (Robust.context ~subsystem ~operation ~indices:[ i ]
             ~values:[ f.mean ]
             "zero-variance arc with positive mean (statistically degenerate \
              cell)")
    | `Nonfinite ->
        Robust.repair nan_sanitized
          (Robust.context ~subsystem ~operation ~indices:[ i ]
             ~values:[ f.mean; f.rand ]
             "non-finite coefficient in canonical form; zeroing");
        let dst =
          match !fixed with
          | Some a -> a
          | None ->
              let a = Array.copy forms in
              fixed := Some a;
              a
        in
        dst.(i) <- repair_form f
  done;
  match !fixed with Some a -> a | None -> forms
