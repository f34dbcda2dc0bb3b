(* Reference block-based SSTA sweep, one boxed form operation at a time:
   per edge in topological order, [Form.add] of the upstream arrival and
   the edge form, then [Form.max2 prev t] into the downstream vertex.  It
   shares no code with the [Propagate] kernels (packed slabs, fused
   add-then-max), so agreeing with it bit for bit is a real check of
   them. *)

module Form = Ssta_canonical.Form
module Form_buf = Ssta_canonical.Form_buf
module Tgraph = Ssta_timing.Tgraph
module Propagate = Hier_ssta.Propagate

(* Boxed <-> slab conversions: the library holds edge forms only in
   slabs, the oracles and many fixtures in boxed arrays. *)
let pack dims forms =
  let t = Form_buf.create dims (Array.length forms) in
  Array.iteri (Form_buf.set t) forms;
  t

let unpack buf = Array.init (Form_buf.length buf) (Form_buf.get buf)

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
          let t = Form.add a forms.(i) in
          let d = downstream.(i) in
          arr.(d) <-
            (match arr.(d) with
            | None -> Some t
            | Some prev -> Some (Form.max2 prev t)))
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
      | Some a, Some b -> Some (Form.max2 a b))
    None vertices

let circuit_delay g ~forms = max_over (forward_all g ~forms) g.Tgraph.outputs

(* Per-vertex (mean, sigma), [nan] where unreachable. *)
let scalar_summaries arr =
  let stat f = Array.map (function Some x -> f x | None -> nan) arr in
  (stat (fun x -> x.Form.mean), stat Form.std)

(* The [Propagate] kernel sweeps with every vertex boxed: what the oracle
   is compared against. *)
let boxed ws g = Array.init (Tgraph.n_vertices g) (Propagate.ws_form ws)

let kernel_forward g ~forms ~sources =
  let ws = Propagate.create_workspace () in
  Propagate.forward_into ws g ~forms:(pack_like forms) ~sources;
  boxed ws g

let kernel_backward_to g ~forms out =
  let ws = Propagate.create_workspace () in
  Propagate.backward_to_into ws g ~forms:(pack_like forms) out;
  boxed ws g
