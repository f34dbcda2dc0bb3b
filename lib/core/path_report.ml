module Form = Ssta_canonical.Form
module Form_buf = Ssta_canonical.Form_buf
module Tgraph = Ssta_timing.Tgraph

type path = {
  vertices : int list;
  edges : int list;
  delay : Form.t;
  criticality : float;
}

(* Per-vertex memo over one arrival state.  [ml.(v)] is the
   maximum-likelihood fanin edge of [v]: the fanin arc whose
   [arrival(src) + delay] is tightest against [v]'s own arrival, the first
   one on ties.  A vertex without fanin arcs is a source; a vertex whose
   fanin arcs all come from unreached vertices has no ML edge, and neither
   it nor anything whose ML chain runs through it can be traced.
   [prefix.(v)] is the left-fold sum of the edge forms along the ML chain
   from its source to [v] - the delay of the path [trace] reports into
   [v] - so it is only defined for traceable vertices with an ML edge. *)
type index = {
  g : Tgraph.t;
  forms : Form_buf.t;
  arrival_of : int -> Form.t option;
  arrival : Form.t option array;
  fetched : Bytes.t;
  ml : int array;
  prefix : Form.t array;
  stack : int array;
  acc : Form_buf.t;
      (** scratch: slot 0 folds a path's edge forms in place, slot 1 holds
          the endpoint arrival its criticality is taken against; slots 2
          and 3 hold a fanin sum and the arrival it is tested against *)
}

let ml_unknown = -2
let ml_source = -1
let ml_none = -3

(* Physical sentinel for a [prefix] slot not yet filled. *)
let no_prefix = Form.constant { Form.n_globals = 0; n_pcs = 0 } nan

let index g ~forms ~arrival =
  let n = Tgraph.n_vertices g in
  {
    g;
    forms;
    arrival_of = arrival;
    arrival = Array.make n None;
    fetched = Bytes.make n '\000';
    ml = Array.make n ml_unknown;
    prefix = Array.make n no_prefix;
    stack = Array.make n 0;
    acc = Form_buf.create (Form_buf.dims forms) 4;
  }

let arrival ix v =
  if Bytes.unsafe_get ix.fetched v = '\000' then begin
    ix.arrival.(v) <- ix.arrival_of v;
    Bytes.unsafe_set ix.fetched v '\001'
  end;
  ix.arrival.(v)

(* ML fanin edge of a reached vertex. *)
let ml_edge ix v =
  let m = ix.ml.(v) in
  if m <> ml_unknown then m
  else begin
    let g = ix.g in
    let lo = g.Tgraph.fanin_lo.(v) and hi = g.Tgraph.fanin_hi.(v) in
    let m =
      if lo >= hi then ml_source
      else
        match arrival ix v with
        | None -> ml_none
        | Some a_v ->
            let acc = ix.acc in
            Form_buf.set acc 3 a_v;
            let best = ref ml_none and best_tp = ref 0.0 in
            for e = lo to hi - 1 do
              match arrival ix g.Tgraph.src.(e) with
              | None -> ()
              | Some a_src ->
                  Form_buf.set acc 2 a_src;
                  Form_buf.add_into ~a:acc ~ia:2 ~b:ix.forms ~ib:e ~dst:acc
                    ~idst:2;
                  let tp = Form_buf.tightness acc 2 acc 3 in
                  if !best = ml_none || not (!best_tp >= tp) then begin
                    best := e;
                    best_tp := tp
                  end
            done;
            !best
    in
    ix.ml.(v) <- m;
    m
  end

(* Whether the ML chain from reached vertex [v] ends at a source.  Not
   memoized: every caller walks the chain anyway to list its vertices. *)
let rec traceable ix v =
  let m = ml_edge ix v in
  m = ml_source || (m <> ml_none && traceable ix ix.g.Tgraph.src.(m))

(* [prefix.(v)] for a traceable [v] with an ML edge, filled source-ward
   first so each slot is its predecessor's plus one edge form. *)
let prefix ix v =
  let g = ix.g and stack = ix.stack in
  let depth = ref 0 and u = ref v in
  while
    ix.prefix.(!u) == no_prefix && ix.ml.(g.Tgraph.src.(ix.ml.(!u))) >= 0
  do
    stack.(!depth) <- !u;
    incr depth;
    u := g.Tgraph.src.(ix.ml.(!u))
  done;
  if ix.prefix.(!u) == no_prefix then
    ix.prefix.(!u) <- Form_buf.get ix.forms ix.ml.(!u);
  for i = !depth - 1 downto 0 do
    let w = stack.(i) in
    let e = ix.ml.(w) in
    Form_buf.set ix.acc 0 ix.prefix.(g.Tgraph.src.(e));
    Form_buf.add_into ~a:ix.acc ~ia:0 ~b:ix.forms ~ib:e ~dst:ix.acc ~idst:0;
    ix.prefix.(w) <- Form_buf.get ix.acc 0
  done;
  ix.prefix.(v)

(* The ML chain into [v], prepended onto [vertices]/[edges]. *)
let chain ix v ~vertices ~edges =
  let rec walk v vs es =
    let m = ix.ml.(v) in
    if m = ml_source then (v :: vs, es)
    else walk ix.g.Tgraph.src.(m) (v :: vs) (m :: es)
  in
  walk v vertices edges

let empty_delay ix = Form.zero (Form_buf.dims ix.forms)

let trace ix ~endpoint =
  match arrival ix endpoint with
  | None -> None
  | Some a ->
      if not (traceable ix endpoint) then None
      else begin
        let vertices, edges = chain ix endpoint ~vertices:[] ~edges:[] in
        let delay =
          if ix.ml.(endpoint) = ml_source then empty_delay ix
          else prefix ix endpoint
        in
        Form_buf.set ix.acc 0 delay;
        Form_buf.set ix.acc 1 a;
        let criticality = Form_buf.tightness ix.acc 0 ix.acc 1 in
        Some { vertices; edges; delay; criticality }
      end

let rec drop n = function
  | _ :: tl when n > 0 -> drop (n - 1) tl
  | l -> l

let top_paths ix ~endpoint ~k =
  match trace ix ~endpoint with
  | None -> []
  | Some best ->
      let g = ix.g and forms = ix.forms in
      let acc = ix.acc in
      (* [trace] left the endpoint arrival in slot 1; [prefix] and the
         folds below write slot 0 only. *)
      let acc_add e =
        Form_buf.add_into ~a:acc ~ia:0 ~b:forms ~ib:e ~dst:acc ~idst:0
      in
      let candidates = ref [ best ] in
      (* Branch: at each vertex of the best path, divert onto each
         alternate fanin arc, complete the upstream side with the ML chain,
         and keep the best path's suffix downstream.
         varr.(i-1) -e(i-1)-> varr.(i).  In a DAG a path enters each
         vertex once, so distinct (vertex, arc) branches are distinct
         paths, and none of them is the best path. *)
      let varr = Array.of_list best.vertices in
      let earr = Array.of_list best.edges in
      let n = Array.length earr in
      let down_v = ref (drop 2 best.vertices) in
      let down_e = ref (drop 1 best.edges) in
      for i = 1 to n do
        let v = varr.(i) in
        let chosen = earr.(i - 1) in
        for e = g.Tgraph.fanin_lo.(v) to g.Tgraph.fanin_hi.(v) - 1 do
          let u = g.Tgraph.src.(e) in
          if e <> chosen && Option.is_some (arrival ix u) && traceable ix u
          then begin
            if ix.ml.(u) = ml_source then Form_buf.blit forms e acc 0
            else begin
              Form_buf.set acc 0 (prefix ix u);
              acc_add e
            end;
            for j = i to n - 1 do
              acc_add earr.(j)
            done;
            let delay = Form_buf.get acc 0 in
            let criticality = Form_buf.tightness acc 0 acc 1 in
            let vertices, edges =
              chain ix u ~vertices:(v :: !down_v) ~edges:(e :: !down_e)
            in
            candidates := { vertices; edges; delay; criticality } :: !candidates
          end
        done;
        down_v := drop 1 !down_v;
        down_e := drop 1 !down_e
      done;
      let sorted =
        List.sort (fun a b -> compare b.criticality a.criticality) !candidates
      in
      List.filteri (fun i _ -> i < k) sorted

let report g ~forms ~k ppf =
  let ws = Propagate.create_workspace () in
  Propagate.forward_into ws g ~forms ~sources:g.Tgraph.inputs;
  match Propagate.ws_worst ws g.Tgraph.outputs with
  | None -> Format.fprintf ppf "no reachable output@."
  | Some endpoint ->
      let ix = index g ~forms ~arrival:(Propagate.ws_form ws) in
      Format.fprintf ppf "worst endpoint %d: arrival %a@." endpoint Form.pp
        (Option.get (Propagate.ws_form ws endpoint));
      List.iteri
        (fun i p ->
          Format.fprintf ppf "#%d crit=%.3f mean=%.1f sigma=%.1f [%s]@." (i + 1)
            p.criticality p.delay.Form.mean (Form.std p.delay)
            (String.concat "->" (List.map string_of_int p.vertices)))
        (top_paths ix ~endpoint ~k)
