module Form = Ssta_canonical.Form
module Form_buf = Ssta_canonical.Form_buf
module Tgraph = Ssta_timing.Tgraph

type path = {
  vertices : int list;
  edges : int list;
  delay : Form.t;
  criticality : float;
}

(* Per-vertex memo over one arrival state, all of it in scratch the index
   owns and [reset] empties.  [ml.(v)] is the maximum-likelihood fanin
   edge of [v]: the fanin arc whose [arrival(src) + delay] is tightest
   against [v]'s own arrival, the first one on ties.  A vertex without
   fanin arcs is a source; a vertex whose fanin arcs all come from
   unreached vertices has no ML edge, and neither it nor anything whose
   ML chain runs through it can be traced.  [slot.(v)] is [v]'s slot in
   the [prefix] slab, which holds the left-fold sum of the edge forms
   along the ML chain from its source to [v] - the delay of the path
   [trace] reports into [v] - so it is only defined for traceable
   vertices with an ML edge.  Slots are handed out in first-use order and
   the slab doubles when full, so it holds only the vertices a query
   visits.

   A query's candidate paths fold their delays into the [cand] slab:
   candidate 0 is the ML path into the endpoint ([path_v]/[path_e], [len]
   edges), candidate [c > 0] diverts onto fanin edge [via.(c)] at
   position [at.(c)] of it.  Only the candidates a query returns are
   boxed into [path]s. *)
type index = {
  g : Tgraph.t;
  forms : Form_buf.t;
  arrival : Propagate.workspace;
  ml : int array;
  slot : int array;
  touched : int array;  (** the vertices whose [ml] is set, for [reset] *)
  mutable n_touched : int;
  mutable prefix : Form_buf.t;
  mutable n_prefix : int;
  stack : int array;
  path_v : int array;
  path_e : int array;
  mutable len : int;
  mutable cand : Form_buf.t;
  mutable crit : float array;
  mutable at : int array;
  mutable via : int array;
  mutable n_cand : int;
  sum : Form_buf.t;  (** one slot: the fanin sum an ML probe tests *)
}

let ml_unknown = -2
let ml_source = -1
let ml_none = -3

let index g ~forms ~arrival =
  let n = Tgraph.n_vertices g and dims = Form_buf.dims forms in
  {
    g;
    forms;
    arrival;
    ml = Array.make n ml_unknown;
    slot = Array.make n (-1);
    touched = Array.make n 0;
    n_touched = 0;
    prefix = Form_buf.create dims 64;
    n_prefix = 0;
    stack = Array.make n 0;
    path_v = Array.make n 0;
    path_e = Array.make n 0;
    len = 0;
    cand = Form_buf.create dims 16;
    crit = Array.make 16 0.0;
    at = Array.make 16 0;
    via = Array.make 16 0;
    n_cand = 0;
    sum = Form_buf.create dims 1;
  }

let reset ix =
  for k = 0 to ix.n_touched - 1 do
    let v = ix.touched.(k) in
    ix.ml.(v) <- ml_unknown;
    ix.slot.(v) <- -1
  done;
  ix.n_touched <- 0;
  ix.n_prefix <- 0

(* [buf] at twice its length, its first [used] slots kept. *)
let doubled buf used =
  let b = Form_buf.create (Form_buf.dims buf) (2 * Form_buf.length buf) in
  for i = 0 to used - 1 do
    Form_buf.blit buf i b i
  done;
  b

let grow_ints a = Array.append a (Array.make (Array.length a) 0)

(* ML fanin edge of a vertex: one [Form_buf.tightness] of the fanin sum
   [arrival(src) + delay], built in [sum], against the vertex's arrival
   slot per reached fanin arc. *)
let ml_edge ix v =
  let m = ix.ml.(v) in
  if m <> ml_unknown then m
  else begin
    let g = ix.g and ws = ix.arrival in
    let lo = g.Tgraph.fanin_lo.(v) and hi = g.Tgraph.fanin_hi.(v) in
    let m =
      if lo >= hi then ml_source
      else if not (Propagate.ws_reached ws v) then ml_none
      else begin
        let a = Propagate.ws_buf ws and sum = ix.sum in
        let best = ref ml_none and best_tp = ref 0.0 in
        for e = lo to hi - 1 do
          let u = g.Tgraph.src.(e) in
          if Propagate.ws_reached ws u then begin
            Form_buf.add_into ~a ~ia:u ~b:ix.forms ~ib:e ~dst:sum ~idst:0;
            let tp = Form_buf.tightness sum 0 a v in
            if !best = ml_none || not (!best_tp >= tp) then begin
              best := e;
              best_tp := tp
            end
          end
        done;
        !best
      end
    in
    ix.ml.(v) <- m;
    ix.touched.(ix.n_touched) <- v;
    ix.n_touched <- ix.n_touched + 1;
    m
  end

(* Whether the ML chain from reached vertex [v] ends at a source.  Not
   memoized: every caller walks the chain anyway to list its vertices. *)
let rec traceable ix v =
  let m = ml_edge ix v in
  m = ml_source || (m <> ml_none && traceable ix ix.g.Tgraph.src.(m))

let new_prefix_slot ix v =
  if ix.n_prefix = Form_buf.length ix.prefix then
    ix.prefix <- doubled ix.prefix ix.n_prefix;
  let s = ix.n_prefix in
  ix.n_prefix <- s + 1;
  ix.slot.(v) <- s;
  s

(* The prefix slot of a traceable [v] with an ML edge, filled source-ward
   first so each slot is its predecessor's plus one edge form. *)
let prefix ix v =
  let g = ix.g and stack = ix.stack in
  let depth = ref 0 and u = ref v in
  while ix.slot.(!u) < 0 && ix.ml.(g.Tgraph.src.(ix.ml.(!u))) >= 0 do
    stack.(!depth) <- !u;
    incr depth;
    u := g.Tgraph.src.(ix.ml.(!u))
  done;
  if ix.slot.(!u) < 0 then begin
    let s = new_prefix_slot ix !u in
    Form_buf.blit ix.forms ix.ml.(!u) ix.prefix s
  end;
  for i = !depth - 1 downto 0 do
    let w = stack.(i) in
    let e = ix.ml.(w) in
    let s = new_prefix_slot ix w in
    Form_buf.add_into ~a:ix.prefix ~ia:ix.slot.(g.Tgraph.src.(e)) ~b:ix.forms
      ~ib:e ~dst:ix.prefix ~idst:s
  done;
  ix.slot.(v)

let new_candidate ix ~at ~via =
  let c = ix.n_cand in
  if c = Form_buf.length ix.cand then begin
    ix.cand <- doubled ix.cand c;
    ix.crit <- Array.append ix.crit (Array.make c 0.0);
    ix.at <- grow_ints ix.at;
    ix.via <- grow_ints ix.via
  end;
  ix.n_cand <- c + 1;
  ix.at.(c) <- at;
  ix.via.(c) <- via;
  c

(* Candidate 0: the ML path into [endpoint] into [path_v]/[path_e], its
   delay and its criticality against the endpoint arrival.  False when
   the endpoint is unreached or its chain dead-ends. *)
let best ix ~endpoint =
  let g = ix.g and ws = ix.arrival in
  if not (Propagate.ws_reached ws endpoint && traceable ix endpoint) then false
  else begin
    let len = ref 0 and v = ref endpoint in
    while ix.ml.(!v) <> ml_source do
      incr len;
      v := g.Tgraph.src.(ix.ml.(!v))
    done;
    let len = !len in
    ix.path_v.(0) <- !v;
    let v = ref endpoint in
    for i = len downto 1 do
      let e = ix.ml.(!v) in
      ix.path_v.(i) <- !v;
      ix.path_e.(i - 1) <- e;
      v := g.Tgraph.src.(e)
    done;
    ix.len <- len;
    ix.n_cand <- 0;
    let c = new_candidate ix ~at:len ~via:(-1) in
    if len = 0 then Form_buf.clear_slot ix.cand c
    else begin
      let s = prefix ix endpoint in
      Form_buf.blit ix.prefix s ix.cand c
    end;
    ix.crit.(c) <- Form_buf.tightness ix.cand c (Propagate.ws_buf ws) endpoint;
    true
  end

(* The ML chain into [v], prepended onto [vertices]/[edges]. *)
let chain ix v ~vertices ~edges =
  let rec walk v vs es =
    let m = ix.ml.(v) in
    if m = ml_source then (v :: vs, es)
    else walk ix.g.Tgraph.src.(m) (v :: vs) (m :: es)
  in
  walk v vertices edges

(* [a.(lo) ... a.(hi)] as a list. *)
let sub_list a lo hi =
  let rec go i acc = if i < lo then acc else go (i - 1) (a.(i) :: acc) in
  go hi []

let path_of ix c =
  let len = ix.len and e = ix.via.(c) in
  let vertices, edges =
    if e < 0 then chain ix ix.path_v.(len) ~vertices:[] ~edges:[]
    else
      let i = ix.at.(c) in
      chain ix ix.g.Tgraph.src.(e)
        ~vertices:(ix.path_v.(i) :: sub_list ix.path_v (i + 1) len)
        ~edges:(e :: sub_list ix.path_e i (len - 1))
  in
  { vertices; edges; delay = Form_buf.get ix.cand c; criticality = ix.crit.(c) }

let trace ix ~endpoint = if best ix ~endpoint then Some (path_of ix 0) else None

let top_paths ix ~endpoint ~k =
  if not (best ix ~endpoint) then []
  else begin
    let g = ix.g and forms = ix.forms and len = ix.len in
    let a = Propagate.ws_buf ix.arrival in
    let ids = ref [ 0 ] in
    (* Branch: at each vertex of the best path, divert onto each alternate
       fanin arc, complete the upstream side with the ML chain, and keep
       the best path's suffix downstream.
       path_v.(i-1) -path_e.(i-1)-> path_v.(i).  In a DAG a path enters
       each vertex once, so distinct (vertex, arc) branches are distinct
       paths, and none of them is the best path.  Each delay is the left
       fold of its edge forms from the input side. *)
    for i = 1 to len do
      let v = ix.path_v.(i) and chosen = ix.path_e.(i - 1) in
      for e = g.Tgraph.fanin_lo.(v) to g.Tgraph.fanin_hi.(v) - 1 do
        let u = g.Tgraph.src.(e) in
        if e <> chosen && Propagate.ws_reached ix.arrival u && traceable ix u
        then begin
          let from = if ix.ml.(u) = ml_source then -1 else prefix ix u in
          let c = new_candidate ix ~at:i ~via:e in
          let cand = ix.cand in
          if from < 0 then Form_buf.blit forms e cand c
          else
            Form_buf.add_into ~a:ix.prefix ~ia:from ~b:forms ~ib:e ~dst:cand
              ~idst:c;
          for j = i to len - 1 do
            Form_buf.add_into ~a:cand ~ia:c ~b:forms ~ib:ix.path_e.(j) ~dst:cand
              ~idst:c
          done;
          ix.crit.(c) <- Form_buf.tightness cand c a endpoint;
          ids := c :: !ids
        end
      done
    done;
    let crit = ix.crit in
    List.sort (fun x y -> compare crit.(y) crit.(x)) !ids
    |> List.filteri (fun i _ -> i < k)
    |> List.map (path_of ix)
  end

let report g ~forms ~k ppf =
  let ws = Propagate.create_workspace () in
  Propagate.forward_into ws g ~forms ~sources:g.Tgraph.inputs;
  match Propagate.ws_worst ws g.Tgraph.outputs with
  | None -> Format.fprintf ppf "no reachable output@."
  | Some endpoint ->
      let ix = index g ~forms ~arrival:ws in
      Format.fprintf ppf "worst endpoint %d: arrival %a@." endpoint Form.pp
        (Option.get (Propagate.ws_form ws endpoint));
      List.iteri
        (fun i p ->
          Format.fprintf ppf "#%d crit=%.3f mean=%.1f sigma=%.1f [%s]@." (i + 1)
            p.criticality p.delay.Form.mean (Form.std p.delay)
            (String.concat "->" (List.map string_of_int p.vertices)))
        (top_paths ix ~endpoint ~k)
