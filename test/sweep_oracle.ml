(* Reference canonical-form arithmetic and block-based SSTA sweep, one
   boxed form operation at a time.  [add]/[max2]/[tightness] are the
   statistical sum and max of paper eqs. (6)-(9) over boxed [Form.t]
   records; the sweep applies, per edge in topological order, [add] of the
   upstream arrival and the edge form, then [max2 prev t] into the
   downstream vertex.  None of it shares code with the [Form_buf] kernels
   (strided slabs, fused add-then-max, in-place folds), so agreeing with
   it bit for bit is a real check of them. *)

module Form = Ssta_canonical.Form
module Form_buf = Ssta_canonical.Form_buf
module Tgraph = Ssta_timing.Tgraph
module Propagate = Hier_ssta.Propagate
module Normal = Ssta_gauss.Normal
module Vec = Ssta_linalg.Vec

let map2 f a b =
  if Array.length a <> Array.length b then
    invalid_arg "Sweep_oracle: dimension mismatch";
  Array.init (Array.length a) (fun i -> f a.(i) b.(i))

(* Statistical sum (paper Section II): coefficients add; the two private
   random parts are replaced by one variance-matched random part. *)
let add (a : Form.t) (b : Form.t) =
  {
    Form.mean = a.mean +. b.mean;
    globals = map2 ( +. ) a.globals b.globals;
    pcs = map2 ( +. ) a.pcs b.pcs;
    rand = sqrt ((a.rand *. a.rand) +. (b.rand *. b.rand));
  }

let clark a b =
  Normal.clark_max ~mean_a:a.Form.mean ~var_a:(Form.variance a)
    ~mean_b:b.Form.mean ~var_b:(Form.variance b) ~cov:(Form.covariance a b)

(* P(a >= b), paper eq. (6). *)
let tightness a b = (clark a b).Normal.tightness

(* Statistical max, paper eqs. (7)-(9): Clark's mean, tightness-blended
   linear coefficients, and a random coefficient matching Clark's variance
   (clamped at zero when the blend already over-covers it). *)
let max2 (a : Form.t) (b : Form.t) =
  let { Normal.tightness = tp; mean; variance = target_var } = clark a b in
  if tp >= 1.0 then a
  else if tp <= 0.0 then b
  else begin
    let s = 1.0 -. tp in
    let lerp = map2 (fun x y -> (tp *. x) +. (s *. y)) in
    let globals = lerp a.globals b.globals in
    let pcs = lerp a.pcs b.pcs in
    let linear_var = Vec.sum_sq globals +. Vec.sum_sq pcs in
    let rand = sqrt (Float.max 0.0 (target_var -. linear_var)) in
    { Form.mean; globals; pcs; rand }
  end

let max_list = function
  | [] -> invalid_arg "Sweep_oracle.max_list: empty list"
  | x :: rest -> List.fold_left max2 x rest

let correlation a b =
  let d = Form.std a *. Form.std b in
  if d <= 0.0 then 0.0 else Form.covariance a b /. d

(* The form evaluated on one realization of all its variables. *)
let sample (t : Form.t) ~globals ~pcs ~rand =
  t.mean +. Vec.dot t.globals globals +. Vec.dot t.pcs pcs +. (t.rand *. rand)

let equal ?(tol = 1e-9) (a : Form.t) (b : Form.t) =
  let close x y = abs_float (x -. y) <= tol in
  close a.mean b.mean && close a.rand b.rand
  && Array.length a.globals = Array.length b.globals
  && Array.length a.pcs = Array.length b.pcs
  && Array.for_all2 close a.globals b.globals
  && Array.for_all2 close a.pcs b.pcs

(* Boxed <-> slab conversions: the library holds edge forms only in
   slabs, the oracles and many fixtures in boxed arrays. *)
let pack dims forms =
  let t = Form_buf.create dims (Array.length forms) in
  Array.iteri (Form_buf.set t) forms;
  t

let unpack buf = Array.init (Form_buf.length buf) (Form_buf.get buf)

(* Bit-for-bit equality of forms: the contract between the kernels and
   this oracle. *)
let form_bits (f : Form.t) =
  List.map Int64.bits_of_float
    ((f.mean :: Array.to_list f.globals) @ Array.to_list f.pcs @ [ f.rand ])

let same_bits a b = Form.dims a = Form.dims b && form_bits a = form_bits b

let check_bits msg expected actual =
  if not (same_bits expected actual) then
    Alcotest.failf "%s:@.expected %a@.actual   %a" msg Form.pp expected
      Form.pp actual

let pack_like forms =
  pack
    (if Array.length forms = 0 then { Form.n_globals = 0; n_pcs = 0 }
     else Form.dims forms.(0))
    forms

let sweep g ~forms ~seeds ~edges ~upstream ~downstream =
  if Array.length forms <> Tgraph.n_edges g then
    invalid_arg "Sweep_oracle: form count does not match edges";
  let arr = Array.make (Tgraph.n_vertices g) None in
  let zero =
    Form.zero
      (if Array.length forms = 0 then { Form.n_globals = 0; n_pcs = 0 }
       else Form.dims forms.(0))
  in
  Array.iter (fun v -> arr.(v) <- Some zero) seeds;
  List.iter
    (fun i ->
      match arr.(upstream.(i)) with
      | None -> ()
      | Some a ->
          let t = add a forms.(i) in
          let d = downstream.(i) in
          arr.(d) <-
            (match arr.(d) with
            | None -> Some t
            | Some prev -> Some (max2 prev t)))
    edges;
  arr

(* Arrival forms with arrival 0 at every vertex of [sources]; [None] where
   unreachable. *)
let forward g ~forms ~sources =
  sweep g ~forms ~seeds:sources
    ~edges:(List.init (Tgraph.n_edges g) Fun.id)
    ~upstream:g.Tgraph.src ~downstream:g.Tgraph.dst

let forward_all g ~forms = forward g ~forms ~sources:g.Tgraph.inputs

(* Per vertex, the maximum path delay from the vertex to output [out]. *)
let backward_to g ~forms out =
  sweep g ~forms ~seeds:[| out |]
    ~edges:(List.rev (List.init (Tgraph.n_edges g) Fun.id))
    ~upstream:g.Tgraph.dst ~downstream:g.Tgraph.src

let max_over arr vertices =
  Array.fold_left
    (fun acc v ->
      match (acc, arr.(v)) with
      | None, x | x, None -> x
      | Some a, Some b -> Some (max2 a b))
    None vertices

let circuit_delay g ~forms = max_over (forward_all g ~forms) g.Tgraph.outputs

(* Per-vertex (mean, sigma), [nan] where unreachable. *)
let scalar_summaries arr =
  let stat f = Array.map (function Some x -> f x | None -> nan) arr in
  (stat (fun x -> x.Form.mean), stat Form.std)

(* The [Propagate] kernel sweeps with every vertex boxed: what the oracle
   is compared against. *)
let boxed ws g = Array.init (Tgraph.n_vertices g) (Propagate.ws_form ws)

(* A workspace holding a boxed arrival state, for the consumers that read
   arrivals in place from a sweep's workspace ([Path_report]). *)
let workspace_of ~dims arrival =
  let ws = Propagate.create_workspace () in
  Propagate.ws_load ws ~dims arrival;
  ws

let kernel_forward g ~forms ~sources =
  let ws = Propagate.create_workspace () in
  Propagate.forward_into ws g ~forms:(pack_like forms) ~sources;
  boxed ws g

let kernel_backward_to g ~forms out =
  let ws = Propagate.create_workspace () in
  Propagate.backward_block_into [| ws |] g ~forms:(pack_like forms)
    ~outs:[| out |] ~lo:0 ~hi:1;
  boxed ws g
