type t = { rows : int; cols : int; data : float array }

let make rows cols =
  if rows < 0 || cols < 0 then invalid_arg "Mat.make: negative dimension";
  { rows; cols; data = Array.make (rows * cols) 0.0 }

let init rows cols f =
  let m = make rows cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      m.data.((i * cols) + j) <- f i j
    done
  done;
  m

let identity n = init n n (fun i j -> if i = j then 1.0 else 0.0)

let get m i j =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then
    invalid_arg "Mat.get: index out of bounds";
  m.data.((i * m.cols) + j)

let set m i j v =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then
    invalid_arg "Mat.set: index out of bounds";
  m.data.((i * m.cols) + j) <- v

let dims m = (m.rows, m.cols)
let copy m = { m with data = Array.copy m.data }

let of_arrays rows =
  let r = Array.length rows in
  if r = 0 then make 0 0
  else begin
    let c = Array.length rows.(0) in
    Array.iter
      (fun row ->
        if Array.length row <> c then
          invalid_arg "Mat.of_arrays: ragged rows")
      rows;
    init r c (fun i j -> rows.(i).(j))
  end

let to_arrays m =
  Array.init m.rows (fun i -> Array.sub m.data (i * m.cols) m.cols)

let row m i =
  if i < 0 || i >= m.rows then invalid_arg "Mat.row: out of bounds";
  Array.sub m.data (i * m.cols) m.cols

let transpose m = init m.cols m.rows (fun i j -> m.data.((j * m.cols) + i))

let mul a b =
  if a.cols <> b.rows then invalid_arg "Mat.mul: dimension mismatch";
  let out = make a.rows b.cols in
  for i = 0 to a.rows - 1 do
    for k = 0 to a.cols - 1 do
      let aik = a.data.((i * a.cols) + k) in
      if aik <> 0.0 then
        for j = 0 to b.cols - 1 do
          out.data.((i * b.cols) + j) <-
            out.data.((i * b.cols) + j) +. (aik *. b.data.((k * b.cols) + j))
        done
    done
  done;
  out

let mul_vec a x =
  if a.cols <> Array.length x then invalid_arg "Mat.mul_vec: dim mismatch";
  Array.init a.rows (fun i ->
      let acc = ref 0.0 in
      let base = i * a.cols in
      for j = 0 to a.cols - 1 do
        acc :=
          !acc +. (Array.unsafe_get a.data (base + j) *. Array.unsafe_get x j)
      done;
      !acc)

let tmul_vec a x =
  if a.rows <> Array.length x then invalid_arg "Mat.tmul_vec: dim mismatch";
  let out = Array.make a.cols 0.0 in
  for i = 0 to a.rows - 1 do
    let xi = Array.unsafe_get x i in
    if xi <> 0.0 then begin
      let base = i * a.cols in
      for j = 0 to a.cols - 1 do
        Array.unsafe_set out j
          (Array.unsafe_get out j
          +. (xi *. Array.unsafe_get a.data (base + j)))
      done
    end
  done;
  out

let map2 f a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg "Mat: dimension mismatch";
  { a with data = Array.init (Array.length a.data) (fun i -> f a.data.(i) b.data.(i)) }

let add a b = map2 ( +. ) a b
let sub a b = map2 ( -. ) a b
let scale alpha m = { m with data = Array.map (fun v -> alpha *. v) m.data }

let max_abs_diff a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg "Mat.max_abs_diff: dimension mismatch";
  let worst = ref 0.0 in
  Array.iteri
    (fun i v -> worst := Float.max !worst (abs_float (v -. b.data.(i))))
    a.data;
  !worst

let is_symmetric ?(tol = 1e-9) m =
  m.rows = m.cols
  &&
  let ok = ref true in
  for i = 0 to m.rows - 1 do
    for j = i + 1 to m.cols - 1 do
      if
        abs_float (m.data.((i * m.cols) + j) -. m.data.((j * m.cols) + i))
        > tol
      then ok := false
    done
  done;
  !ok

let pp ppf m =
  Format.fprintf ppf "@[<v>";
  for i = 0 to m.rows - 1 do
    Format.fprintf ppf "[";
    for j = 0 to m.cols - 1 do
      Format.fprintf ppf "%s%8.4f" (if j > 0 then " " else "") (get m i j)
    done;
    Format.fprintf ppf "]@,"
  done;
  Format.fprintf ppf "@]"
