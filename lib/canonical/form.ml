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
let add_const a c = { a with mean = a.mean +. c }

let scale alpha a =
  {
    mean = alpha *. a.mean;
    globals = Vec.scale alpha a.globals;
    pcs = Vec.scale alpha a.pcs;
    rand = abs_float alpha *. a.rand;
  }

let cdf t x =
  let s = std t in
  if s <= 0.0 then if x >= t.mean then 1.0 else 0.0
  else Normal.cdf ((x -. t.mean) /. s)

let quantile t p = t.mean +. (std t *. Normal.quantile p)

let pp ppf t =
  Format.fprintf ppf "@[<h>%.4f (sigma=%.4f; g=[%a]; |pcs|=%.4f; r=%.4f)@]"
    t.mean (std t)
    (Format.pp_print_array
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
       (fun ppf v -> Format.fprintf ppf "%.4f" v))
    t.globals (Vec.norm2 t.pcs) t.rand
