(* Order statistics shared by the runner, the compare tool and the tests. *)

let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

let median a =
  let n = Array.length a in
  if n = 0 then nan
  else
    let s = sorted a in
    if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

let mean a = Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

(* Runs of several kinds making up one op: [kinds] pairs each kind's
   weight, how many of it one op holds, with its run times.  Returns the
   weighted sums of the kinds' medians and of their means.  Neither
   depends on how many runs of each kind were made, and a mix of kinds
   whose times differ a hundredfold cannot put the median on the
   boundary between two of them, as the median of the pooled runs can. *)
let by_kind kinds =
  let weighted f = List.fold_left (fun acc (w, t) -> acc +. (w *. f t)) 0.0 kinds in
  (weighted median, weighted mean)

(* Python's [statistics.quantiles data ~n:4] with its default "exclusive"
   method: the spreads a benchmark bound is judged by are computed this
   way, so the ledger reproduces it exactly. *)
let quartiles a =
  let s = sorted a in
  let ld = Array.length s in
  if ld < 2 then invalid_arg "Stats.quartiles: need at least two values";
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta))
    /. 4.0
  in
  (q 1, q 2, q 3)

(* Nearest-rank percentile of an already sorted sample; [p] in percent. *)
let percentile s p =
  let n = Array.length s in
  if n = 0 then nan
  else
    let k = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    s.(max 0 (min (n - 1) (k - 1)))

(* Candidate tail percentiles in hundredths of a percent, highest first;
   integer arithmetic keeps "ten samples beyond" exact. *)
let ladder = [ 9999; 9990; 9900; 9500; 9000; 7500; 5000 ]

(* The highest ladder percentile with at least ten samples beyond its
   nearest-rank position, as (percentile, value).  Below 20 samples no
   percentile has ten beyond it and the median is reported as p50: the
   maximum of a handful of samples would mostly measure which one
   happened to hit a slow moment of the machine. *)
let tail a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.tail: empty sample";
  let s = sorted a in
  let rank p = ((p * n) + 9999) / 10000 in
  match List.find_opt (fun p -> n - rank p >= 10) ladder with
  | Some p -> (float_of_int p /. 100.0, s.(rank p - 1))
  | None -> (50.0, median a)
