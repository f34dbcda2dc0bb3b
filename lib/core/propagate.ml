module Form = Ssta_canonical.Form
module Form_buf = Ssta_canonical.Form_buf
module Tgraph = Ssta_timing.Tgraph
module Obs = Ssta_obs.Obs

(* Sweep-level instrumentation.  The kernels' inner loops stay untouched:
   sweep and Clark-max counts are recovered from the final reachability
   mask after the sweep (see [account] below), so the disabled-mode cost
   is one flag load per sweep. *)
let c_forward_sweeps = Obs.counter "propagate.forward_sweeps"
let c_update_sweeps = Obs.counter "propagate.update_sweeps"
let c_update_vertices = Obs.counter "propagate.update_vertices"
let c_update_edges = Obs.counter "propagate.update_edges"
let c_backward_sweeps = Obs.counter "propagate.backward_sweeps"
let c_backward_blocks = Obs.counter "propagate.backward_blocks"
let c_clark_max_evals = Obs.counter "propagate.clark_max_evals"
let c_add_evals = Obs.counter "propagate.add_evals"
let g_ws_floats = Obs.gauge "propagate.ws_floats_hw"

let check_buf g forms =
  if Form_buf.length forms < Tgraph.n_edges g then
    invalid_arg "Propagate: form buffer shorter than edge count"

type workspace = {
  mutable buf : Form_buf.t;
  mutable reach : Bytes.t;
  mutable srcmask : Bytes.t;
      (* per-vertex source-membership scratch of [forward_update_into];
         only meaningful during a call *)
  mutable fold : Form_buf.t;
      (* one-slot accumulator of [ws_max_over], off the slab: it is not
         part of any capacity plan *)
  slab : Form_buf.slab option;
}

let no_dims = { Form.n_globals = 0; n_pcs = 0 }

let create_workspace ?slab () =
  {
    buf = Form_buf.create no_dims 0;
    reach = Bytes.create 0;
    srcmask = Bytes.create 0;
    fold = Form_buf.create no_dims 1;
    slab;
  }

let ws_buf ws = ws.buf
let ws_reached ws v = Bytes.unsafe_get ws.reach v <> '\000'

let ws_form ws v =
  if ws_reached ws v then Some (Form_buf.get ws.buf v) else None

let ws_reach_into ws ~n ~into =
  if Bytes.length into < n then
    invalid_arg "Propagate.ws_reach_into: destination shorter than n";
  Bytes.blit ws.reach 0 into 0 n

let ws_source_cone_into ws g ~into =
  Tgraph.src_cone_into g ~reach:ws.reach ~into

(* Size the workspace for one sweep and clear the reachability mask; slots
   are left as-is (reads are gated by the mask, so stale values from a
   previous sweep are never observed). *)
let prepare ws ~dims ~n =
  if Form_buf.dims ws.buf <> dims || Form_buf.length ws.buf < n then begin
    ws.buf <- Form_buf.create ?slab:ws.slab dims n;
    Obs.gauge_max g_ws_floats (Form_buf.length ws.buf * Form_buf.stride ws.buf)
  end;
  if Bytes.length ws.reach < n then ws.reach <- Bytes.make n '\000'
  else Bytes.fill ws.reach 0 (Bytes.length ws.reach) '\000'

let mark ws v = Bytes.unsafe_set ws.reach v '\001'

(* Arrival 0 at every source.  A plain loop rather than [Array.iter]: the
   closure would cost five minor words per sweep. *)
let seed ws sources =
  for k = 0 to Array.length sources - 1 do
    let v = Array.unsafe_get sources k in
    Form_buf.clear_slot ws.buf v;
    mark ws v
  done

(* Pre-size a workspace outside any parallel region.  Slab-backed
   workspaces carve their buffer on first [prepare]; when that first sweep
   runs inside a parallel region, concurrent carves would race on the
   slab's cursor.  Callers that share one slab across workspaces swept in
   parallel (the criticality tile) must reserve each workspace
   sequentially first, after which in-region prepares never regrow. *)
let reserve ws ~dims ~n = prepare ws ~dims ~n

let ws_load ws ~dims arrival =
  prepare ws ~dims ~n:(Array.length arrival);
  Array.iteri
    (fun v -> function
      | None -> ()
      | Some f ->
          Form_buf.set ws.buf v f;
          mark ws v)
    arrival

(* Post-sweep op accounting, run only when observability is enabled so
   the kernel loops carry no per-edge instrumentation.  The edge list is
   topologically sorted (every fanin edge of a vertex precedes every
   fanout edge), so "endpoint reached in the final mask" is exactly
   "endpoint was reached when the edge was processed": the processed-edge
   count is the number of edges whose upstream endpoint ([src] forward,
   [dst] backward) is reached, each reached non-seed vertex was produced
   by exactly one plain add, and every remaining processed edge ran the
   fused add + Clark-max kernel. *)
let account ws g ~n_seeds ~upstream ~sweeps =
  let processed = ref 0 in
  for i = 0 to Array.length upstream - 1 do
    if ws_reached ws (Array.unsafe_get upstream i) then Stdlib.incr processed
  done;
  let reached = ref 0 in
  for v = 0 to Tgraph.n_vertices g - 1 do
    if ws_reached ws v then Stdlib.incr reached
  done;
  let adds = !reached - n_seeds in
  Obs.incr sweeps;
  Obs.add c_add_evals adds;
  Obs.add c_clark_max_evals (!processed - adds)

let forward_into ws g ~forms ~sources =
  check_buf g forms;
  prepare ws ~dims:(Form_buf.dims forms) ~n:(Tgraph.n_vertices g);
  seed ws sources;
  let buf = ws.buf in
  let src = g.Tgraph.src and dst = g.Tgraph.dst in
  for i = 0 to Array.length src - 1 do
    let s = Array.unsafe_get src i in
    if ws_reached ws s then begin
      let d = Array.unsafe_get dst i in
      if ws_reached ws d then
        Form_buf.add_then_max_into ~acc:buf ~iacc:d ~a:buf ~ia:s ~b:forms ~ib:i
      else begin
        Form_buf.add_into ~a:buf ~ia:s ~b:forms ~ib:i ~dst:buf ~idst:d;
        mark ws d
      end
    end
  done;
  if Obs.enabled () then
    account ws g ~n_seeds:(Array.length sources) ~upstream:src
      ~sweeps:c_forward_sweeps

(* Incremental re-timing: recompute only the vertices marked dirty, in
   topological order, reading the surviving slots of the previous sweep
   for every clean fanin.  Soundness needs the dirty mask to be closed
   under fanout (Tgraph.fanout_closure_into): then every clean vertex has
   only clean fanin sources, so its stored slot is exactly what a full
   re-sweep would recompute, and every dirty vertex is rebuilt with the
   same fanin-range fold (same kernel calls, same order) as the full
   sweep - bit-identical by induction over the topological order.  Delay
   edits never change reachability, but the reached bit of each dirty
   vertex is re-derived anyway so the workspace stays self-consistent.
   Dirty vertices with no fanin are left untouched (their state - zero
   form for sources, unreached otherwise - cannot depend on edge
   forms). *)
let forward_update_into ws g ~forms ~sources ~dirty =
  check_buf g forms;
  let n = Tgraph.n_vertices g in
  if Form_buf.dims ws.buf <> Form_buf.dims forms || Form_buf.length ws.buf < n
  then
    invalid_arg
      "Propagate.forward_update_into: workspace holds no prior sweep of this \
       graph";
  if Bytes.length ws.reach < n then
    invalid_arg
      "Propagate.forward_update_into: workspace holds no prior sweep of this \
       graph";
  if Bytes.length dirty < n then
    invalid_arg "Propagate.forward_update_into: dirty mask shorter than graph";
  if Bytes.length ws.srcmask < n then ws.srcmask <- Bytes.make n '\000'
  else Bytes.fill ws.srcmask 0 n '\000';
  Array.iter (fun v -> Bytes.unsafe_set ws.srcmask v '\001') sources;
  let buf = ws.buf in
  let src = g.Tgraph.src and dst = g.Tgraph.dst in
  let fanin_lo = g.Tgraph.fanin_lo and fanin_hi = g.Tgraph.fanin_hi in
  let n_dirty = ref 0 and n_visited = ref 0 in
  for i = 0 to Array.length src - 1 do
    let v = Array.unsafe_get dst i in
    if
      i = Array.unsafe_get fanin_lo v && Bytes.unsafe_get dirty v <> '\000'
    then begin
      Stdlib.incr n_dirty;
      if Bytes.unsafe_get ws.srcmask v <> '\000' then begin
        Form_buf.clear_slot buf v;
        Bytes.unsafe_set ws.reach v '\001'
      end
      else Bytes.unsafe_set ws.reach v '\000';
      let hi = Array.unsafe_get fanin_hi v in
      for e = i to hi - 1 do
        Stdlib.incr n_visited;
        let s = Array.unsafe_get src e in
        if ws_reached ws s then
          if ws_reached ws v then
            Form_buf.add_then_max_into ~acc:buf ~iacc:v ~a:buf ~ia:s ~b:forms
              ~ib:e
          else begin
            Form_buf.add_into ~a:buf ~ia:s ~b:forms ~ib:e ~dst:buf ~idst:v;
            mark ws v
          end
      done
    end
  done;
  if Obs.enabled () then begin
    Obs.incr c_update_sweeps;
    Obs.add c_update_vertices !n_dirty;
    Obs.add c_update_edges !n_visited
  end;
  (!n_dirty, !n_visited)

(* Blocked multi-output backward propagation: one pass over the reversed
   topological edge order advances a whole block of output sweeps at once,
   so the edge table (src/dst loads) is traversed once per block instead
   of once per output.  Workspace [k] of [wss.(lo..hi-1)] receives exactly
   the kernel-call sequence of a lone sweep from [outs.(k)] (seed the
   output, then per edge in reversed order the fused add-then-max into the
   source): the workspaces are disjoint and the per-edge inner loop visits
   them in a fixed order, so each output's accumulation order - and
   therefore every result bit - does not depend on the block (test_kernels
   pins every block size against the boxed oracle sweep).  Accounting
   stays per output sweep ([backward_sweeps] still counts outputs);
   [backward_blocks] counts the amortized passes. *)
let backward_block_into wss g ~forms ~outs ~lo ~hi =
  check_buf g forms;
  if
    lo < 0 || lo > hi
    || hi > Array.length wss
    || hi > Array.length outs
  then invalid_arg "Propagate.backward_block_into: bad block range";
  let dims = Form_buf.dims forms and nv = Tgraph.n_vertices g in
  for k = lo to hi - 1 do
    let ws = wss.(k) in
    prepare ws ~dims ~n:nv;
    Form_buf.clear_slot ws.buf outs.(k);
    mark ws outs.(k)
  done;
  let src = g.Tgraph.src and dst = g.Tgraph.dst in
  for i = Array.length src - 1 downto 0 do
    let d = Array.unsafe_get dst i in
    let s = Array.unsafe_get src i in
    for k = lo to hi - 1 do
      let ws = Array.unsafe_get wss k in
      if ws_reached ws d then begin
        let buf = ws.buf in
        if ws_reached ws s then
          Form_buf.add_then_max_into ~acc:buf ~iacc:s ~a:buf ~ia:d ~b:forms
            ~ib:i
        else begin
          Form_buf.add_into ~a:buf ~ia:d ~b:forms ~ib:i ~dst:buf ~idst:s;
          mark ws s
        end
      end
    done
  done;
  if Obs.enabled () then begin
    for k = lo to hi - 1 do
      account wss.(k) g ~n_seeds:1 ~upstream:dst ~sweeps:c_backward_sweeps
    done;
    if hi > lo then Obs.incr c_backward_blocks
  end

(* Per-vertex mean, std, variance and random coefficient of the last
   sweep in one interleaved unboxed slab row: the blocked criticality
   screen retains these so its eval fast path reads rows instead of
   probing the form buffer, and interleaving them at [stat_stride] puts
   all four in the cache line the visit's first load already fetched (the
   screen's vertex accesses are scattered, so four parallel rows cost four
   misses where one interleaved row costs one).
   [sigma = sqrt var] exactly as [Form_buf.std], so the row values are
   bit-identical to the probes. *)
let stat_mu = 0
let stat_sigma = 1
let stat_var = 2
let stat_rand = 3
let stat_stride = 4

let scalar_stats_into ws ~n ~into =
  let module A1 = Bigarray.Array1 in
  let buf = ws.buf in
  for v = 0 to n - 1 do
    let o = stat_stride * v in
    if ws_reached ws v then begin
      let variance = Form_buf.variance buf v in
      A1.unsafe_set into (o + stat_mu) (Form_buf.mean buf v);
      A1.unsafe_set into (o + stat_sigma) (sqrt variance);
      A1.unsafe_set into (o + stat_var) variance;
      A1.unsafe_set into (o + stat_rand) (Form_buf.rand_coeff buf v)
    end
    else begin
      A1.unsafe_set into (o + stat_mu) nan;
      A1.unsafe_set into (o + stat_sigma) nan;
      A1.unsafe_set into (o + stat_var) nan;
      A1.unsafe_set into (o + stat_rand) nan
    end
  done

(* Boxed results: sweep with the kernels and box only what a caller
   reads. *)

(* Left fold of the statistical max over the reached vertices, in order,
   into the one-slot accumulator: the first reached vertex is copied in,
   every later one is maxed in with the accumulator as the first operand.
   A plain loop, so only the boxed result allocates. *)
let ws_max_over ws vertices =
  let buf = ws.buf in
  if Form_buf.dims ws.fold <> Form_buf.dims buf then
    ws.fold <- Form_buf.create (Form_buf.dims buf) 1;
  let acc = ws.fold in
  let any = ref false in
  for k = 0 to Array.length vertices - 1 do
    let v = Array.unsafe_get vertices k in
    if ws_reached ws v then
      if !any then
        Form_buf.max2_into ~a:acc ~ia:0 ~b:buf ~ib:v ~dst:acc ~idst:0
      else begin
        Form_buf.blit buf v acc 0;
        any := true
      end
  done;
  if !any then Some (Form_buf.get acc 0) else None

let ws_worst ws vertices =
  let best = ref (-1) and best_mu = ref nan in
  Array.iter
    (fun v ->
      if ws_reached ws v then begin
        let mu = Form_buf.mean ws.buf v in
        if !best < 0 || mu > !best_mu then begin
          best := v;
          best_mu := mu
        end
      end)
    vertices;
  if !best < 0 then None else Some !best

(* One task per input, each sweeping into the workspace its worker drew
   from the caller's pool; tasks write only their own row, so the rows
   come back in input order at every domain count. *)
let io_delays ~pool g ~forms =
  let inputs = g.Tgraph.inputs and outputs = g.Tgraph.outputs in
  Ssta_par.Par.map_tasks_pool ~pool (Array.length inputs) (fun ws i ->
      forward_into ws g ~forms ~sources:[| inputs.(i) |];
      Array.map (ws_form ws) outputs)

let circuit_delay g ~forms =
  let ws = create_workspace () in
  forward_into ws g ~forms ~sources:g.Tgraph.inputs;
  ws_max_over ws g.Tgraph.outputs

let forward g ~forms ~sources =
  let ws = create_workspace () in
  forward_into ws g ~forms ~sources;
  Array.init (Tgraph.n_vertices g) (ws_form ws)

(* The same fold over boxed forms: slot 1 of a two-slot scratch takes
   each operand in turn. *)
let max_over arr vertices =
  let acc = ref None in
  Array.iter
    (fun v ->
      match (!acc, arr.(v)) with
      | _, None -> ()
      | None, Some f ->
          let b = Form_buf.create (Form.dims f) 2 in
          Form_buf.set b 0 f;
          acc := Some b
      | Some b, Some f ->
          Form_buf.set b 1 f;
          Form_buf.max2_into ~a:b ~ia:0 ~b ~ib:1 ~dst:b ~idst:0)
    vertices;
  Option.map (fun b -> Form_buf.get b 0) !acc
