module Welford = struct
  type t = { mutable n : int; mutable mean : float; mutable m2 : float }

  let create () = { n = 0; mean = 0.0; m2 = 0.0 }

  let add t x =
    t.n <- t.n + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean))

  let count t = t.n
  let mean t = t.mean
  let variance t = if t.n < 2 then 0.0 else t.m2 /. float_of_int (t.n - 1)
  let std t = sqrt (variance t)
end

module Robust = Ssta_robust.Robust

(* Order statistics and moments are undefined on NaN (polymorphic compare
   gives an arbitrary order; sums poison silently), so the entry points
   that sort or average reject NaN samples with a structured error naming
   the first offending index.  One pass, no allocation. *)
let check_no_nan op xs =
  let n = Array.length xs in
  let i = ref 0 in
  while !i < n && not (Float.is_nan xs.(!i)) do
    incr i
  done;
  if !i < n then
    Robust.fail ~subsystem:"gauss.stats" ~operation:op ~indices:[ !i ]
      ~values:[ xs.(!i) ] "NaN sample"

let mean xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.mean: empty sample";
  check_no_nan "mean" xs;
  Array.fold_left ( +. ) 0.0 xs /. float_of_int n

let variance xs =
  let n = Array.length xs in
  if n < 2 then 0.0
  else
    let m = mean xs in
    let acc = ref 0.0 in
    Array.iter
      (fun x ->
        let d = x -. m in
        acc := !acc +. (d *. d))
      xs;
    !acc /. float_of_int (n - 1)

let std xs = sqrt (variance xs)

let quantile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.quantile: empty sample";
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg "Stats.quantile: p outside [0, 1]";
  check_no_nan "quantile" xs;
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let pos = p *. float_of_int (n - 1) in
  let lo = int_of_float (floor pos) in
  let hi = int_of_float (ceil pos) in
  if lo = hi then sorted.(lo)
  else
    let w = pos -. float_of_int lo in
    ((1.0 -. w) *. sorted.(lo)) +. (w *. sorted.(hi))

let empirical_cdf xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.empirical_cdf: empty sample";
  check_no_nan "empirical_cdf" xs;
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let probs = Array.init n (fun i -> float_of_int (i + 1) /. float_of_int n) in
  (sorted, probs)

let histogram_dropped ?lo ?hi ~bins xs =
  if bins <= 0 then invalid_arg "Stats.histogram: bins must be positive";
  if Array.length xs = 0 then invalid_arg "Stats.histogram: empty sample";
  check_no_nan "histogram" xs;
  let lo =
    match lo with Some v -> v | None -> Array.fold_left min xs.(0) xs
  in
  let hi =
    match hi with Some v -> v | None -> Array.fold_left max xs.(0) xs
  in
  let width = (hi -. lo) /. float_of_int bins in
  let counts = Array.make bins 0 in
  let dropped = ref 0 in
  Array.iter
    (fun x ->
      if x >= lo && x <= hi then begin
        let b =
          if width <= 0.0 then 0
          else min (bins - 1) (int_of_float ((x -. lo) /. width))
        in
        counts.(b) <- counts.(b) + 1
      end
      else incr dropped)
    xs;
  (counts, !dropped)

let histogram ?lo ?hi ~bins xs = fst (histogram_dropped ?lo ?hi ~bins xs)

let ks_distance xs cdf =
  let sorted, _ = empirical_cdf xs in
  let n = Array.length sorted in
  let fn = float_of_int n in
  let worst = ref 0.0 in
  Array.iteri
    (fun i x ->
      let f = cdf x in
      let d_hi = abs_float ((float_of_int (i + 1) /. fn) -. f) in
      let d_lo = abs_float (f -. (float_of_int i /. fn)) in
      worst := Float.max !worst (Float.max d_hi d_lo))
    sorted;
  !worst
