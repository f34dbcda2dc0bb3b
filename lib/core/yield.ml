module Form = Ssta_canonical.Form

let clock_for_yield f ~yield =
  if not (yield > 0.0 && yield < 1.0) then
    invalid_arg "Yield.clock_for_yield: yield must lie in (0, 1)";
  Form.quantile f yield

let empirical samples ~clock =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Yield.empirical: no samples";
  let hits = Array.fold_left (fun k d -> if d <= clock then k + 1 else k) 0 samples in
  float_of_int hits /. float_of_int n
