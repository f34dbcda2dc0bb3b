module Form_buf = Ssta_canonical.Form_buf
module Tgraph = Ssta_timing.Tgraph
module Obs = Ssta_obs.Obs

(* Table-I bookkeeping for the merge fixpoint: totals accumulate across
   the passes of one [reduce] call and are published once at the end. *)
let c_serial_merges = Obs.counter "reduce.serial_merges"
let c_parallel_merges = Obs.counter "reduce.parallel_merges"
let c_pruned_vertices = Obs.counter "reduce.pruned_vertices"
let c_passes = Obs.counter "reduce.passes"

(* An edge's weight is its own slot of the workspace's private slab:
   merges rewrite it in place, no slot is ever shared. *)
type edge = {
  mutable esrc : int;
  mutable edst : int;
  slot : int;
  mutable alive : bool;
}

type vertex = {
  mutable fanin : edge list;
  mutable fanout : edge list;
  is_input : bool;
  is_output : bool;
  mutable valive : bool;
}

(* Dead edges are only flagged ([alive <- false]), never surgically
   removed from the adjacency lists: eager removal cost a full prefix
   rebuild per kill, which went quadratic on high-fanout hubs once the
   ~1M-gate designs arrived (a hub that accumulates F parallel edges
   pays O(F) per duplicate killed, O(F^2) per pass).  Readers go through
   [live], which filters flagged edges out and writes the compacted list
   back - amortized O(deaths), and the *live* sublist order is exactly
   what eager removal produced, so merge accumulation orders (hence
   every model bit) are unchanged.

   [stamp]/[group_cell] back parallel_pass's duplicate grouping: epoch-
   stamped per-destination list cells replace the per-vertex Hashtbl
   (one million table allocations per pass at scale).  [epoch] strictly
   increases, one step per grouped vertex; a stale stamp means the cell
   belongs to a previous vertex's grouping and is ignored. *)
type t = {
  forms : Form_buf.t;  (** the kept edges' weights, one slot per edge *)
  vertices : vertex array;
  inputs : int array;
  outputs : int array;
  mutable live_edges : int;
  stamp : int array;
  group_cell : edge list ref array;
  mutable epoch : int;
}

let rec all_alive = function [] -> true | e :: r -> e.alive && all_alive r

let live l = if all_alive l then l else List.filter (fun e -> e.alive) l

let live_fanin v =
  let l = live v.fanin in
  v.fanin <- l;
  l

let live_fanout v =
  let l = live v.fanout in
  v.fanout <- l;
  l

let of_graph g ~forms ~keep =
  let n = Tgraph.n_vertices g in
  let is_in = Array.make n false and is_out = Array.make n false in
  Array.iter (fun v -> is_in.(v) <- true) g.Tgraph.inputs;
  Array.iter (fun v -> is_out.(v) <- true) g.Tgraph.outputs;
  let vertices =
    Array.init n (fun v ->
        {
          fanin = [];
          fanout = [];
          is_input = is_in.(v);
          is_output = is_out.(v);
          valive = is_in.(v) || is_out.(v);
        })
  in
  let n_kept = Array.fold_left (fun k b -> if b then k + 1 else k) 0 keep in
  let slab = Form_buf.create (Form_buf.dims forms) n_kept in
  let live = ref 0 in
  Array.iteri
    (fun i s ->
      if keep.(i) then begin
        let d = g.Tgraph.dst.(i) in
        Form_buf.blit forms i slab !live;
        let e = { esrc = s; edst = d; slot = !live; alive = true } in
        vertices.(s).fanout <- e :: vertices.(s).fanout;
        vertices.(d).fanin <- e :: vertices.(d).fanin;
        vertices.(s).valive <- true;
        vertices.(d).valive <- true;
        incr live
      end)
    g.Tgraph.src;
  {
    forms = slab;
    vertices;
    inputs = Array.copy g.Tgraph.inputs;
    outputs = Array.copy g.Tgraph.outputs;
    live_edges = !live;
    stamp = Array.make n (-1);
    group_cell = Array.make n (ref []);
    epoch = 0;
  }

let n_live_edges t = t.live_edges

let n_live_vertices t =
  Array.fold_left (fun acc v -> if v.valive then acc + 1 else acc) 0 t.vertices

let is_port v = v.is_input || v.is_output

let kill_edge t e =
  if e.alive then begin
    e.alive <- false;
    t.live_edges <- t.live_edges - 1
  end

(* Dead-vertex cascade on a worklist: killing a vertex's edges can only
   expose its live neighbours, so only those need rechecking - the old
   whole-array rescan per cascade level was |V| x depth at scale.  The
   removed set is confluent (a vertex with an empty live side stays
   empty), so the visit order does not affect the outcome. *)
let prune t =
  let removed = ref 0 in
  let q = Queue.create () in
  let dead v = live_fanin v = [] || live_fanout v = [] in
  let kill vi v =
    List.iter
      (fun e ->
        if e.alive then begin
          kill_edge t e;
          let o = if e.esrc = vi then e.edst else e.esrc in
          if t.vertices.(o).valive then Queue.add o q
        end)
      v.fanin;
    List.iter
      (fun e ->
        if e.alive then begin
          kill_edge t e;
          let o = if e.esrc = vi then e.edst else e.esrc in
          if t.vertices.(o).valive then Queue.add o q
        end)
      v.fanout;
    v.valive <- false;
    incr removed
  in
  Array.iteri
    (fun vi v -> if v.valive && not (is_port v) && dead v then kill vi v)
    t.vertices;
  while not (Queue.is_empty q) do
    let vi = Queue.pop q in
    let v = t.vertices.(vi) in
    if v.valive && not (is_port v) && dead v then kill vi v
  done;
  !removed

let serial_pass t =
  let merged = ref 0 in
  Array.iteri
    (fun _vi v ->
      if v.valive && not (is_port v) then begin
        match (live_fanin v, live_fanout v) with
        | [ e_in ], (_ :: _ as fanout) ->
            (* Forward serial merge (paper Fig. 1a): route every fanout edge
               of v directly from v's unique predecessor. *)
            let u = e_in.esrc in
            List.iter
              (fun f ->
                f.esrc <- u;
                Form_buf.add_into ~a:t.forms ~ia:e_in.slot ~b:t.forms
                  ~ib:f.slot ~dst:t.forms ~idst:f.slot;
                t.vertices.(u).fanout <- f :: t.vertices.(u).fanout)
              fanout;
            v.fanout <- [];
            kill_edge t e_in;
            v.valive <- false;
            incr merged
        | (_ :: _ as fanin), [ e_out ] ->
            (* Reverse serial merge (paper Fig. 1b). *)
            let w = e_out.edst in
            List.iter
              (fun f ->
                f.edst <- w;
                Form_buf.add_into ~a:t.forms ~ia:f.slot ~b:t.forms
                  ~ib:e_out.slot ~dst:t.forms ~idst:f.slot;
                t.vertices.(w).fanin <- f :: t.vertices.(w).fanin)
              fanin;
            v.fanin <- [];
            kill_edge t e_out;
            v.valive <- false;
            incr merged
        | _ -> ()
      end)
    t.vertices;
  !merged

(* Group a vertex's live fanout by destination exactly as the Hashtbl
   version did: per-destination lists consed in traversal order (so each
   group is the reversed fanout-order sublist), groups processed
   independently.  Groups touch disjoint edge sets and kills are flag
   writes, so inter-group processing order is immaterial to the result;
   within a group the fold order over [rest] is preserved, which is what
   fixes the Clark-max accumulation order and hence the model bits. *)
let parallel_pass t =
  let merged = ref 0 in
  Array.iter
    (fun v ->
      if v.valive then begin
        let fanout = live_fanout v in
        if fanout <> [] then begin
          let ep = t.epoch in
          t.epoch <- ep + 1;
          let cells = ref [] in
          List.iter
            (fun e ->
              let d = e.edst in
              if t.stamp.(d) <> ep then begin
                t.stamp.(d) <- ep;
                let c = ref [ e ] in
                t.group_cell.(d) <- c;
                cells := c :: !cells
              end
              else begin
                let c = t.group_cell.(d) in
                c := e :: !c
              end)
            fanout;
          List.iter
            (fun cell ->
              match !cell with
              | [] | [ _ ] -> ()
              | first :: rest ->
                  List.iter
                    (fun e ->
                      Form_buf.max2_into ~a:t.forms ~ia:first.slot ~b:t.forms
                        ~ib:e.slot ~dst:t.forms ~idst:first.slot)
                    rest;
                  List.iter (kill_edge t) rest;
                  merged := !merged + List.length rest)
            !cells
        end
      end)
    t.vertices;
  !merged

let reduce t =
  let pruned = ref (prune t) in
  let serial = ref 0 and par = ref 0 and passes = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    let p = parallel_pass t in
    let s = serial_pass t in
    let d = prune t in
    par := !par + p;
    serial := !serial + s;
    pruned := !pruned + d;
    Stdlib.incr passes;
    continue_ := p + s + d > 0
  done;
  if Obs.enabled () then begin
    Obs.add c_serial_merges !serial;
    Obs.add c_parallel_merges !par;
    Obs.add c_pruned_vertices !pruned;
    Obs.add c_passes !passes
  end

let freeze t =
  let n = Array.length t.vertices in
  let new_id = Array.make n (-1) in
  let count = ref 0 in
  for v = 0 to n - 1 do
    if t.vertices.(v).valive then begin
      new_id.(v) <- !count;
      incr count
    end
  done;
  let edges = ref [] and slots = ref [] in
  Array.iter
    (fun v ->
      List.iter
        (fun e ->
          if e.alive then begin
            edges := (new_id.(e.esrc), new_id.(e.edst)) :: !edges;
            slots := e.slot :: !slots
          end)
        v.fanout)
    t.vertices;
  let edges = Array.of_list !edges and slots = Array.of_list !slots in
  let map_ports ids = Array.map (fun v -> new_id.(v)) ids in
  let inputs = map_ports t.inputs and outputs = map_ports t.outputs in
  let graph, perm =
    Tgraph.make_sorted ~n_vertices:!count ~edges ~inputs ~outputs
  in
  let forms = Form_buf.create (Form_buf.dims t.forms) (Array.length perm) in
  Array.iteri (fun j i -> Form_buf.blit t.forms slots.(i) forms j) perm;
  (graph, forms, inputs, outputs)
