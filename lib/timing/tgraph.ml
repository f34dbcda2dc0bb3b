module Robust = Ssta_robust.Robust

type t = {
  n_vertices : int;
  src : int array;
  dst : int array;
  fanin_lo : int array;
  fanin_hi : int array;
  fanout : int array array;
  inputs : int array;
  outputs : int array;
}

let n_edges t = Array.length t.src
let n_vertices t = t.n_vertices

let make ~n_vertices ~edges ~inputs ~outputs =
  let m = Array.length edges in
  let src = Array.make m 0 and dst = Array.make m 0 in
  Array.iteri
    (fun i (s, d) ->
      if s < 0 || s >= n_vertices || d < 0 || d >= n_vertices then
        Robust.fail ~subsystem:"timing.tgraph" ~operation:"make"
          ~indices:[ i; s; d; n_vertices ]
          "edge endpoint out of range [0, n_vertices)";
      src.(i) <- s;
      dst.(i) <- d)
    edges;
  (* Check the claimed topological edge order: a vertex must not appear as a
     source after... more precisely, every source must already be "settled":
     either it has no fanin edges at all, or all its fanin edges appeared
     earlier in the array. *)
  let fanin_count = Array.make n_vertices 0 in
  Array.iter (fun d -> fanin_count.(d) <- fanin_count.(d) + 1) dst;
  let seen_fanin = Array.make n_vertices 0 in
  Array.iteri
    (fun i s ->
      if seen_fanin.(s) <> fanin_count.(s) then
        Robust.fail ~subsystem:"timing.tgraph" ~operation:"make"
          ~indices:[ i; s; seen_fanin.(s); fanin_count.(s) ]
          "edge uses its source before all the source's fanin edges (edge, \
           vertex, fanins seen, fanins total)";
      seen_fanin.(dst.(i)) <- seen_fanin.(dst.(i)) + 1)
    src;
  (* Fanin edges of each vertex must form one contiguous run (any run order
     is fine as long as the array stays topological). *)
  let fanin_lo = Array.make n_vertices 0 in
  let fanin_hi = Array.make n_vertices 0 in
  let closed = Array.make n_vertices false in
  let i = ref 0 in
  while !i < m do
    let d = dst.(!i) in
    if closed.(d) then
      Robust.fail ~subsystem:"timing.tgraph" ~operation:"make"
        ~indices:[ !i; d ]
        "fanin edges of vertex not contiguous (edge, vertex)";
    fanin_lo.(d) <- !i;
    let j = ref !i in
    while !j < m && dst.(!j) = d do
      incr j
    done;
    fanin_hi.(d) <- !j;
    closed.(d) <- true;
    i := !j
  done;
  let fanout_count = Array.make n_vertices 0 in
  Array.iter (fun s -> fanout_count.(s) <- fanout_count.(s) + 1) src;
  let fanout = Array.init n_vertices (fun v -> Array.make fanout_count.(v) 0) in
  let fill = Array.make n_vertices 0 in
  Array.iteri
    (fun i s ->
      fanout.(s).(fill.(s)) <- i;
      fill.(s) <- fill.(s) + 1)
    src;
  { n_vertices; src; dst; fanin_lo; fanin_hi; fanout; inputs; outputs }

let make_sorted ~n_vertices ~edges ~inputs ~outputs =
  let m = Array.length edges in
  let fanin_count = Array.make n_vertices 0 in
  let out_adj = Array.make n_vertices [] in
  Array.iteri
    (fun i (s, d) ->
      if s < 0 || s >= n_vertices || d < 0 || d >= n_vertices then
        Robust.fail ~subsystem:"timing.tgraph" ~operation:"make_sorted"
          ~indices:[ i; s; d; n_vertices ]
          "edge endpoint out of range [0, n_vertices)";
      fanin_count.(d) <- fanin_count.(d) + 1;
      out_adj.(s) <- i :: out_adj.(s))
    edges;
  let remaining = Array.copy fanin_count in
  let queue = Queue.create () in
  for v = 0 to n_vertices - 1 do
    if remaining.(v) = 0 then Queue.push v queue
  done;
  let perm = Array.make m 0 in
  let fanin_edges = Array.make n_vertices [] in
  Array.iteri
    (fun i (_, d) -> fanin_edges.(d) <- i :: fanin_edges.(d))
    edges;
  let pos = ref 0 in
  let settled = ref 0 in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    incr settled;
    (* Emit all fanin edges of v (their sources are settled by induction). *)
    List.iter
      (fun i ->
        perm.(!pos) <- i;
        incr pos)
      (List.rev fanin_edges.(v));
    List.iter
      (fun i ->
        let _, d = edges.(i) in
        remaining.(d) <- remaining.(d) - 1;
        if remaining.(d) = 0 then Queue.push d queue)
      out_adj.(v)
  done;
  if !settled <> n_vertices then begin
    (* Name a vertex that is actually on a cycle, not merely downstream of
       one: walk backwards through unsettled predecessors until a vertex
       repeats.  Every unsettled vertex has at least one unsettled
       predecessor (otherwise Kahn would have settled it), so the walk is
       total and must revisit within n steps. *)
    let unsettled v = remaining.(v) > 0 in
    let start = ref 0 in
    while not (unsettled !start) do
      incr start
    done;
    let visited = Array.make n_vertices false in
    let cur = ref !start in
    while not visited.(!cur) do
      visited.(!cur) <- true;
      let next = ref (-1) in
      List.iter
        (fun i ->
          let s, _ = edges.(i) in
          if !next < 0 && unsettled s then next := s)
        fanin_edges.(!cur);
      cur := !next
    done;
    Robust.fail ~subsystem:"timing.tgraph" ~operation:"make_sorted"
      ~indices:[ !cur; n_vertices - !settled ]
      "graph is cyclic (vertex on a cycle, unsettled vertex count)"
  end;
  let sorted = Array.map (fun i -> edges.(i)) perm in
  (make ~n_vertices ~edges:sorted ~inputs ~outputs, perm)

let of_netlist nl =
  let module N = Ssta_circuit.Netlist in
  let n_pi = N.n_pis nl in
  let edges = ref [] in
  Array.iteri
    (fun g gate ->
      let v = n_pi + g in
      Array.iter
        (fun s -> edges := (s, v) :: !edges)
        gate.N.fanins)
    nl.N.gates;
  make ~n_vertices:(N.n_nodes nl)
    ~edges:(Array.of_list (List.rev !edges))
    ~inputs:(Array.init n_pi (fun i -> i))
    ~outputs:(Array.copy nl.N.outputs)

(* CSR cone builder for the criticality screen: collect, in ascending edge
   order, the edges whose source is marked in a per-vertex byte mask (the
   reachability masks the propagation workspaces maintain).  Ascending
   order matters - the screen's pruning state evolves edge by edge, so cone
   iteration must visit edges exactly as a full [0, m) scan would. *)

let src_cone_into t ~reach ~into =
  if Bytes.length reach < t.n_vertices then
    invalid_arg "Tgraph.src_cone_into: mask shorter than vertex count";
  if Array.length into < Array.length t.src then
    invalid_arg "Tgraph.src_cone_into: cone array shorter than edge count";
  let src = t.src in
  let k = ref 0 in
  for e = 0 to Array.length src - 1 do
    if Bytes.unsafe_get reach (Array.unsafe_get src e) <> '\000' then begin
      Array.unsafe_set into !k e;
      incr k
    end
  done;
  !k

let fanout_closure_into t ~seeds ~into =
  if Bytes.length into < t.n_vertices then
    invalid_arg "Tgraph.fanout_closure_into: mask shorter than vertex count";
  Bytes.fill into 0 t.n_vertices '\000';
  Array.iter
    (fun v ->
      if v < 0 || v >= t.n_vertices then
        invalid_arg "Tgraph.fanout_closure_into: seed out of range";
      Bytes.unsafe_set into v '\001')
    seeds;
  (* One ascending pass closes the set because edges are topologically
     ordered by sink: an edge's source is finalized (as a sink, or a
     seed) before the edge is visited. *)
  let count = ref 0 in
  for v = 0 to t.n_vertices - 1 do
    if Bytes.unsafe_get into v <> '\000' then incr count
  done;
  Array.iteri
    (fun i s ->
      if
        Bytes.unsafe_get into s <> '\000'
        && Bytes.unsafe_get into (Array.unsafe_get t.dst i) = '\000'
      then begin
        Bytes.unsafe_set into (Array.unsafe_get t.dst i) '\001';
        incr count
      end)
    t.src;
  !count

let reachable_from t v0 =
  let seen = Array.make t.n_vertices false in
  seen.(v0) <- true;
  (* One forward sweep suffices because edges are topologically ordered. *)
  Array.iteri
    (fun i s -> if seen.(s) then seen.(t.dst.(i)) <- true)
    t.src;
  seen

let reaches t v0 =
  let seen = Array.make t.n_vertices false in
  seen.(v0) <- true;
  for i = Array.length t.src - 1 downto 0 do
    if seen.(t.dst.(i)) then seen.(t.src.(i)) <- true
  done;
  seen
