let check_len a b name =
  if Array.length a <> Array.length b then
    invalid_arg (Printf.sprintf "Vec.%s: length mismatch (%d vs %d)" name
                   (Array.length a) (Array.length b))

let dot a b =
  check_len a b "dot";
  let acc = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    acc := !acc +. (Array.unsafe_get a i *. Array.unsafe_get b i)
  done;
  !acc

let scale alpha x = Array.map (fun v -> alpha *. v) x

let sum_sq a =
  let acc = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    let v = Array.unsafe_get a i in
    acc := !acc +. (v *. v)
  done;
  !acc

let norm2 a = sqrt (sum_sq a)
