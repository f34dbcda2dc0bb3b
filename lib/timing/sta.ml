let check g weights =
  if Array.length weights <> Tgraph.n_edges g then
    invalid_arg "Sta: weight array length does not match edge count"

let relax_forward g weights arr =
  let src = g.Tgraph.src and dst = g.Tgraph.dst in
  for i = 0 to Array.length src - 1 do
    let a = Array.unsafe_get arr (Array.unsafe_get src i) in
    if a > neg_infinity then begin
      let d = Array.unsafe_get dst i in
      let t = a +. Array.unsafe_get weights i in
      if t > Array.unsafe_get arr d then Array.unsafe_set arr d t
    end
  done

let forward g ~weights =
  check g weights;
  let arr = Array.make g.Tgraph.n_vertices neg_infinity in
  Array.iter (fun v -> arr.(v) <- 0.0) g.Tgraph.inputs;
  relax_forward g weights arr;
  arr

let forward_from_into g ~weights v0 arr =
  Array.fill arr 0 (Array.length arr) neg_infinity;
  arr.(v0) <- 0.0;
  relax_forward g weights arr

let design_delay g ~weights =
  let arr = forward g ~weights in
  Array.fold_left
    (fun acc o -> Float.max acc arr.(o))
    neg_infinity g.Tgraph.outputs
