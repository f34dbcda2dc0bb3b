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
