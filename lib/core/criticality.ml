module Form = Ssta_canonical.Form
module Form_buf = Ssta_canonical.Form_buf
module Tgraph = Ssta_timing.Tgraph
module Normal = Ssta_gauss.Normal
module Par = Ssta_par.Par
module Obs = Ssta_obs.Obs
module A1 = Bigarray.Array1

(* All counters are published once per [compute] from the merged chunk
   results.  The chunk layout is a pure function of the port counts (never
   of the domain count), and each chunk's contribution is summed, so the
   totals are domain-count invariant - test_obs.ml pins them at 1 vs 4
   domains.

   [screened_pairs] counts the pairs the scalar screen disposed of (bound
   test failed); pairs that went on to a full evaluation are counted by
   [exact_evals] instead, and pairs on settled edges are skipped and
   counted nowhere.  The pre-cone implementation counted every reachable
   pair visit in [screened_pairs], including the evaluated and settled
   ones - the two countings are compared in EXPERIMENTS.md. *)
let c_exact_evals = Obs.counter "criticality.exact_evals"
let c_screened_pairs = Obs.counter "criticality.screened_pairs"
let c_kept_edges = Obs.counter "criticality.kept_edges"
let c_removed_edges = Obs.counter "criticality.removed_edges"
let c_cone_edges = Obs.counter "criticality.cone_edges"
let c_backward_tiles = Obs.counter "criticality.backward_tiles"

(* Peak slab footprint of one screen: the tile slab (backward workspaces,
   retained scalar rows and covariance tables) plus every pool worker's
   forward slab.  Named under extract.* because this is the extraction
   pipeline's dominant resident cost - the gauge is the number to compare
   against CRIT_TILE_BUDGET_MB. *)
let g_slab_peak = Obs.gauge "extract.slab_bytes_peak"

type result = {
  keep : bool array;
  cm : float array;
  exact_evals : int;
  screened_pairs : int;
}

(* Backward tile size: the [?tile] argument when a test passes one,
   otherwise the auto heuristic below over the CRIT_TILE_BUDGET_MB byte
   budget.  Tiled slab storage is the default extraction architecture,
   and every result is bit-identical at every tile size.

   The pure parser behind the budget variable, exposed for tests. *)
let budget_mb_of_string s =
  match int_of_string_opt (String.trim s) with
  | Some n when n >= 1 -> Some n
  | _ -> None

let default_budget_mb = 256
let budget_warned = Atomic.make false

(* Read on every call, not once per process, so a driver can provision a
   budget before it extracts (bench/main.ml's million run does).  An
   invalid value warns once and falls back to the default. *)
let budget_mb_env () =
  match Sys.getenv_opt "CRIT_TILE_BUDGET_MB" with
  | None -> default_budget_mb
  | Some s -> (
      match budget_mb_of_string s with
      | Some n -> n
      | None ->
          if not (Atomic.exchange budget_warned true) then
            Printf.eprintf
              "CRIT_TILE_BUDGET_MB: %S is not a positive integer; defaulting \
               to %d MB\n\
               %!"
              s default_budget_mb;
          default_budget_mb)

(* Auto-tile heuristic: one retained output slot costs
   nv * (8 * stride + 34) + 8 * m bytes - the backward Form_buf workspace
   (stride floats per vertex) and its reachability byte, the four
   per-output scalar rows (mean, sigma, variance, random coefficient),
   the destination bitmask, and the per-output Cov(edge, required) table
   (one float per edge).  The tile is the largest count of such slots
   that fits the byte budget (CRIT_TILE_BUDGET_MB, default 256), floored
   at 1 so a single output always proceeds regardless of budget. *)
let auto_tile ?budget_mb ~n_vertices ~n_edges ~stride () =
  let mb =
    match budget_mb with Some b -> max 1 b | None -> budget_mb_env ()
  in
  let per_output =
    max 1 ((n_vertices * ((8 * stride) + 34)) + (8 * n_edges))
  in
  (* Saturate rather than wrap: [mb * 1024 * 1024] overflows for budgets
     near [max_int], which would read as the smallest tile. *)
  let budget = if mb > max_int / (1024 * 1024) then max_int else mb lsl 20 in
  max 1 (budget / per_output)

(* Edges per block of the screen walk: about 256 KiB of edge forms, so a
   block's edge rows and per-edge table entries stay cache-resident while
   every (output, input) walk of a tile passes over them. *)
let edge_block ~stride = max 1 (262_144 / (8 * stride))

let resolve_tile tile ~nv ~m ~stride no =
  let t =
    match tile with
    | Some n ->
        if n < 1 then
          invalid_arg "Criticality.compute: tile must be at least 1";
        n
    | None -> auto_tile ~n_vertices:nv ~n_edges:m ~stride ()
  in
  max 1 (min t (max no 1))

(* Per-chunk screening state, persistent across output tiles: every chunk
   of inputs screens against its own keep/bar arrays and the chunk
   results are merged in chunk-index order (or for keep, sum for the
   counters), so the outcome is bit-identical no matter how many
   domains ran the chunks.  The bar-based pruning therefore only
   accelerates within a chunk; the merged [keep] set is unaffected (a pair
   is only ever pruned for an edge the same chunk already settled), and in
   exact mode the merged maximum criticality is unaffected too (a pruned
   pair's tightness is bounded by a z-score some evaluated pair of the
   same chunk already reached).

   [s_settled] marks the edges whose decision threshold reached infinity
   (threshold mode: kept; exact mode: identity-detected, cm_z already
   infinite).  A settled edge can never survive the bound test again nor
   improve cm_z, so skipping it without even loading its endpoints - and
   leaving it out of the cone lists built for later tiles - changes no
   result bits, only the visit count.

   In threshold mode the per-edge bar only ever takes two values - the
   initial z_delta and infinity, the latter exactly when the edge is
   settled - so [s_bar] is only materialized in exact mode and the
   threshold screen reads the scalar [bar0] instead: at 1M-gate scale the
   32 chunks' float bars alone were half a gigabyte of resident state.

   The cm_z accumulator is NOT part of this state: it is write-only with
   respect to the screen's control flow (decisions read bar/settled/keep,
   never cm_z), and float max is insensitive to how the contributions are
   partitioned, so the best-z table lives in the per-worker scratch
   (domains of them, not 32) and is max-merged once at the end - another
   half gigabyte of per-chunk floats gone at the million-gate scale,
   bit-identically. *)
type chunk_state = {
  s_keep : Bytes.t;
  s_bar : float array; (* exact mode only; [||] in threshold mode *)
  s_settled : Bytes.t;
  mutable s_exact : int;
  mutable s_screened : int;
  mutable s_cone : int;
}

(* Per-domain scratch drawn from a pool and reused across every tile's
   screen region: one forward workspace per input slot of a chunk, its
   four arrival scalar rows and Cov(arrival, edge) cone table - all carved
   from the worker's capacity-planned slab - plus the active cone list
   with its edge-block cursors and the survivor lanes of the eval batch.
   The whole screen builds at most [domains] of these. *)
type scratch = {
  fwd : Propagate.workspace array;
  a_st : Form_buf.data array;
  cov_ae : Form_buf.data array;
  cone : int array array;
  cone_len : int array;
  (* Per slot: where the current edge block starts in [cone] ([blk_lo])
     and where it ends, which is where the next block starts
     ([blk_hi]). *)
  blk_lo : int array;
  blk_hi : int array;
  (* Survivor lanes of the blocked eval batch: edge/source/sink indices
     and the bound-test mu_de of up to [Form_buf.cov4_lanes] pending
     evals, plus the batch kernel's lanes-by-four covariance output
     row. *)
  b_s : int array;
  b_d : int array;
  b_e : int array;
  b_mu : float array;
  b_cov : Form_buf.data;
  (* The current walk's pair-maximum mean and std, parked in scratch so
     the shared decision tail can read them without taking float
     arguments - a non-inlined call boxes every float argument, and the
     tail runs once per surviving pair. *)
  wk : float array;
  (* Worker-wide best exact tightness z-score per edge (neg_infinity =
     never evaluated by this worker); max-merged across workers after the
     last tile.  See the chunk_state comment for why this is per worker
     rather than per chunk. *)
  cm_z : float array;
  source1 : int array;
  slab : Form_buf.slab;
}

let compute ?(exact = false) ?tile ~delta g ~forms:fbuf =
  if not (delta > 0.0 && delta < 1.0) then
    invalid_arg "Criticality.compute: delta must lie in (0, 1)";
  let m = Tgraph.n_edges g in
  if Form_buf.length fbuf < m then
    invalid_arg "Criticality.compute: form buffer shorter than edge count";
  let nv = Tgraph.n_vertices g in
  let inputs = g.Tgraph.inputs and outputs = g.Tgraph.outputs in
  let ni = Array.length inputs and no = Array.length outputs in
  let dims = Form_buf.dims fbuf in
  let stride = dims.Form.n_globals + dims.Form.n_pcs + 2 in
  let tile_sz = resolve_tile tile ~nv ~m ~stride no in
  let n_tiles = Par.n_chunks ~chunk:tile_sz no in
  let floor_p = 1e-3 in
  let z_delta = Normal.quantile delta in
  let z_floor = Normal.quantile floor_p in
  (* Initial per-edge decision threshold in z-space: in threshold mode an
     edge is settled by any witness >= delta; in exact mode the bar rises to
     the best exact criticality found so far within the chunk (bounds below
     it cannot improve cm). *)
  let bar0 = if exact then z_floor else z_delta in
  (* Edge delay scalars, interleaved four per edge (mu, sigma, var, rand)
     like the vertex stat rows, so a visit reads one cache line per
     edge. *)
  let dst4 = Propagate.stat_stride in
  let st_mu = Propagate.stat_mu
  and st_sg = Propagate.stat_sigma
  and st_vr = Propagate.stat_var
  and st_rd = Propagate.stat_rand in
  let d_st = Array.make (max 1 (dst4 * m)) 0.0 in
  for e = 0 to m - 1 do
    let o = dst4 * e in
    let v = Form_buf.variance fbuf e in
    d_st.(o + Propagate.stat_mu) <- Form_buf.mean fbuf e;
    d_st.(o + Propagate.stat_sigma) <- sqrt v;
    d_st.(o + Propagate.stat_var) <- v;
    d_st.(o + Propagate.stat_rand) <- Form_buf.rand_coeff fbuf e
  done;
  let src = g.Tgraph.src and dst = g.Tgraph.dst in
  (* Screening fan-out: inputs are cut into at most 32 fixed chunks (a
     function of |I| only, never of the domain count or the tile size, to
     keep the chunk layout - and the merged result - invariant). *)
  let input_chunk = max 1 ((ni + 31) / 32) in
  let n_chunks = Par.n_chunks ~chunk:input_chunk ni in
  let srow_floats = max (dst4 * nv) 1 in
  let tab_floats = max m 1 in
  let ws_floats = Form_buf.floats_needed dims nv in
  (* Backward storage for one output tile, reused tile after tile: only
     [tile_sz] retained output slots are resident at once instead of all
     [no].  Each output's backward sweep still runs exactly once - tiling
     costs extra FORWARD sweeps instead, [n_tiles] per input, because
     every chunk re-derives its inputs' arrival data per tile.  The whole
     tile lives on one capacity-planned slab: the backward Form_buf
     workspaces, the interleaved scalar stat row per output and the
     Cov(edge, required) tables are all carved from a single bigarray
     allocation, reused tile after tile.  Workspaces are reserved
     sequentially here so the parallel backward blocks never carve from
     the shared slab concurrently. *)
  let tile_slab =
    Form_buf.slab_create (tile_sz * (ws_floats + srow_floats + tab_floats))
  in
  let tile_ws =
    Array.init tile_sz (fun _ -> Propagate.create_workspace ~slab:tile_slab ())
  in
  Array.iter (fun ws -> Propagate.reserve ws ~dims ~n:nv) tile_ws;
  let req_st =
    Array.init tile_sz (fun _ -> Form_buf.slab_floats tile_slab srow_floats)
  in
  let cov_er =
    Array.init tile_sz (fun _ -> Form_buf.slab_floats tile_slab tab_floats)
  in
  let omasks = Array.init tile_sz (fun _ -> Bytes.make (max nv 1) '\000') in
  let eblock = edge_block ~stride in
  let n_eblocks = Par.n_chunks ~chunk:eblock m in
  let screen_tile_chunk st scratch ~t_lo ~tn ~lo ~hi =
    let n_in = hi - lo in
    let keep = st.s_keep
    and cm_z = scratch.cm_z
    and bar = st.s_bar
    and settled = st.s_settled in
    (* One forward sweep per input of the chunk: arrival forms, scalar
       rows, and the input's active edge cone - ascending edge indices
       whose source the input reaches, minus the edges this chunk already
       settled.  Rebuilt per tile from the (bit-identical) sweep, so the
       non-skipped visit sequence below is the same for every tile size.
       The Cov(arrival, edge) table is filled over the active cone too,
       hoisting the eval's A.E dot product out of the visit loop. *)
    for slot = 0 to n_in - 1 do
      scratch.source1.(0) <- inputs.(lo + slot);
      let ws = scratch.fwd.(slot) in
      Propagate.forward_into ws g ~forms:fbuf ~sources:scratch.source1;
      Propagate.scalar_stats_into ws ~n:nv ~into:scratch.a_st.(slot);
      let cone = scratch.cone.(slot) in
      let raw = Propagate.ws_source_cone_into ws g ~into:cone in
      let k = ref 0 in
      for x = 0 to raw - 1 do
        let e = Array.unsafe_get cone x in
        if Bytes.unsafe_get settled e = '\000' then begin
          Array.unsafe_set cone !k e;
          incr k
        end
      done;
      scratch.cone_len.(slot) <- !k;
      scratch.blk_hi.(slot) <- 0;
      st.s_cone <- st.s_cone + !k;
      Form_buf.cov_src_cone_into ~verts:(Propagate.ws_buf ws) ~forms:fbuf ~src
        ~cone ~len:!k ~into:scratch.cov_ae.(slot)
    done;
    (* Decision tail of lane [j] of the eval batch: reads the moments of
       de = a + d + r and of M from where the screen keeps them - the
       arrival and required-time stat rows at the source [s] and sink [d],
       the edge stat row, the Cov(A,E) and Cov(E,R) tables, lane [j] of
       [b_cov] and M's row at [out] - and commits z, keep, cm_z, bar and
       settled for edge [e].  [bar.(e)] is reloaded here rather than
       threaded from the bound test: an edge appears at most once per
       (output, input) walk, so nothing can have changed it in between
       even though judgement is deferred to a batch flush. *)
    let judge ~e ~j ~s ~d ~out ~(ast : Form_buf.data) ~(rst : Form_buf.data)
        ~(cov_ae_row : Form_buf.data) ~(cov_er_row : Form_buf.data) =
      (* Floats come in through scratch ([b_mu.(j)], [wk]) rather than as
         arguments: this call is not inlined, and float arguments to a
         non-inlined OCaml function are boxed - three young-heap
         allocations per exact evaluation otherwise.  The rows are
         annotated so their loads compile to direct float64 reads. *)
      let mu_de = Array.unsafe_get scratch.b_mu j in
      let m_mu = Array.unsafe_get scratch.wk 0 in
      let m_sig = Array.unsafe_get scratch.wk 1 in
      let bar_e = if exact then Array.unsafe_get bar e else bar0 in
      let b_cov = scratch.b_cov and base = j * Form_buf.cov4_size in
      let o_a = dst4 * s and o_r = dst4 * d in
      let var_de =
        A1.unsafe_get ast (o_a + st_vr)
        +. Array.unsafe_get d_st ((dst4 * e) + st_vr)
        +. A1.unsafe_get rst (o_r + st_vr)
        +. 2.0
           *. (A1.unsafe_get cov_ae_row e
              +. A1.unsafe_get b_cov (base + Form_buf.cov4_ar)
              +. A1.unsafe_get cov_er_row e)
      in
      let cov_dem =
        A1.unsafe_get b_cov (base + Form_buf.cov4_am)
        +. A1.unsafe_get b_cov (base + Form_buf.cov4_em)
        +. A1.unsafe_get b_cov (base + Form_buf.cov4_rm)
      in
      let m_var = m_sig *. m_sig in
      let theta2 = var_de +. m_var -. (2.0 *. cov_dem) in
      (* Identity detection: when every i->j path runs through e (or ties
         are perfectly correlated), M_ij IS d_e - same mean and same
         linear part - but the canonical forms carry the shared private
         randoms as if independent, which would collapse the tightness to
         1/2.  The criticality of such an edge is 1 by definition
         (P(de >= de) = 1). *)
      let scale = var_de +. m_var +. 1e-30 in
      let rand_de2 =
        let ra = A1.unsafe_get ast (o_a + st_rd)
        and rd = Array.unsafe_get d_st ((dst4 * e) + st_rd)
        and rr = A1.unsafe_get rst (o_r + st_rd) in
        (ra *. ra) +. (rd *. rd) +. (rr *. rr)
      in
      let m_rand = A1.unsafe_get ast ((dst4 * out) + st_rd) in
      let linear_dist2 =
        var_de -. rand_de2 +. m_var -. (m_rand *. m_rand)
        -. (2.0 *. cov_dem)
      in
      (* Thresholds are deliberately not machine-epsilon tight: an edge
         whose M differs from de only by a strongly-dominated competitor
         (tightness already > ~0.98) lands here too, which is where it
         belongs - competing paths at statistical parity shift M's mean
         by a sizable fraction of sigma and are rejected by the mean
         test. *)
      let same_path =
        m_mu -. mu_de <= (0.02 *. m_sig) +. 1e-30
        && linear_dist2 <= 1e-4 *. scale
        && m_var <= var_de +. (1e-3 *. scale)
      in
      let z =
        if same_path then infinity
        else if theta2 <= 1e-12 *. scale then
          if mu_de >= m_mu then infinity else neg_infinity
        else (mu_de -. m_mu) /. sqrt theta2
      in
      if z >= z_delta then Bytes.unsafe_set keep e '\001';
      if z > cm_z.(e) then cm_z.(e) <- z;
      if exact then begin
        bar.(e) <- Float.max bar_e z;
        if Array.unsafe_get bar e = infinity then
          Bytes.unsafe_set settled e '\001'
      end
      else if Bytes.unsafe_get keep e <> '\000' then
        (* Threshold mode: a kept edge's bar is infinity by definition,
           so settle it without storing a float bar at all. *)
        Bytes.unsafe_set settled e '\001'
    in
    (* Gathers and judges the first [n] lanes of the batch.  Spare lanes
       of a short tail batch copy lane 0 and are not judged.  Built once
       per call with the walk's values as arguments, not as a closure
       per walk. *)
    let flush ~n ~abuf ~rbuf ~out ~ast ~rst ~cov_ae_row ~cov_er_row =
      for j = n to Form_buf.cov4_lanes - 1 do
        scratch.b_s.(j) <- scratch.b_s.(0);
        scratch.b_d.(j) <- scratch.b_d.(0);
        scratch.b_e.(j) <- scratch.b_e.(0)
      done;
      Form_buf.cov4_batch_into ~a:abuf ~e:fbuf ~r:rbuf ~m:abuf ~im:out
        ~srcs:scratch.b_s ~dsts:scratch.b_d ~edges:scratch.b_e
        ~into:scratch.b_cov;
      for j = 0 to n - 1 do
        judge ~e:(Array.unsafe_get scratch.b_e j) ~j
          ~s:(Array.unsafe_get scratch.b_s j)
          ~d:(Array.unsafe_get scratch.b_d j)
          ~out ~ast ~rst ~cov_ae_row ~cov_er_row
      done
    in
    (* The tile is walked edge block by edge block: for each block, every
       (output, input) walk of the tile visits the block's slice of the
       input's cone, so the block's edge rows and table entries are
       reused from cache by all [tn * n_in] walks instead of streaming
       from memory once per walk.  Each edge still sees its visits in
       (output, input) order - the only order the per-edge state keep,
       bar, settled and cm_z depends on - so results and counters are
       those of the unblocked (output, input, edge) walk bit for bit.
       Settled edges stay in the cone and are skipped by their byte. *)
    for b = 0 to n_eblocks - 1 do
      let e_hi = min m ((b + 1) * eblock) in
      for slot = 0 to n_in - 1 do
        let cone = scratch.cone.(slot) and clen = scratch.cone_len.(slot) in
        let x = ref scratch.blk_hi.(slot) in
        scratch.blk_lo.(slot) <- !x;
        while !x < clen && Array.unsafe_get cone !x < e_hi do
          incr x
        done;
        scratch.blk_hi.(slot) <- !x
      done;
      for jj = 0 to tn - 1 do
        let out = outputs.(t_lo + jj) in
        let rst = req_st.(jj) in
        let cov_er_row = cov_er.(jj) in
        let omask = omasks.(jj) in
        let rbuf = Propagate.ws_buf tile_ws.(jj) in
        for slot = 0 to n_in - 1 do
          let x_lo = scratch.blk_lo.(slot) and x_hi = scratch.blk_hi.(slot) in
          let ws = scratch.fwd.(slot) in
          if x_lo < x_hi && Propagate.ws_reached ws out then begin
            let abuf = Propagate.ws_buf ws in
            let ast = scratch.a_st.(slot) in
            (* M's moments from the arrival stat row: the same
               [mean]/[sqrt variance] values [Form_buf.std] would
               recompute. *)
            let m_mu = A1.unsafe_get ast ((dst4 * out) + st_mu) in
            let m_sig = A1.unsafe_get ast ((dst4 * out) + st_sg) in
            scratch.wk.(0) <- m_mu;
            scratch.wk.(1) <- m_sig;
            let cov_ae_row = scratch.cov_ae.(slot) in
            let cone = scratch.cone.(slot) in
            (* Survivor batching: a walk's evals all touch distinct edges
               (a cone lists each edge once), and the screen state an eval
               writes - keep, cm_z, bar, settled, all per-edge - is never
               read by another visit of the same walk, so collecting
               survivors into lanes and gathering their covariances with
               one multi-chain kernel commutes with the walk: every value,
               update and counter lands bit-identically.  The point of the
               batch is FP-add latency, see {!Form_buf.cov4_batch_into}. *)
            let bn = ref 0 in
            for x = x_lo to x_hi - 1 do
              let e = Array.unsafe_get cone x in
              (* Settled edges are skipped without being counted: they can
                 neither flip [keep] nor raise [cm_z], see
                 [chunk_state]. *)
              if Bytes.unsafe_get settled e = '\000' then begin
                let d = Array.unsafe_get dst e in
                (* One byte load answers "does this edge reach the output"
                   where the pre-cone screen loaded a NaN-sentinel
                   double. *)
                if Bytes.unsafe_get omask d <> '\000' then begin
                  let s = Array.unsafe_get src e in
                  let o_a = dst4 * s
                  and o_e = dst4 * e
                  and o_r = dst4 * d in
                  let mu_de =
                    A1.unsafe_get ast (o_a + st_mu)
                    +. Array.unsafe_get d_st (o_e + st_mu)
                    +. A1.unsafe_get rst (o_r + st_mu)
                  in
                  let theta_max =
                    A1.unsafe_get ast (o_a + st_sg)
                    +. Array.unsafe_get d_st (o_e + st_sg)
                    +. A1.unsafe_get rst (o_r + st_sg)
                    +. m_sig
                  in
                  (* The z-space bound test, phrased as a boolean join: an
                     [if]/[else] producing a float would box it on every
                     screened pair (no flambda), and this comparison runs
                     tens of millions of times at c7552 scale.  The
                     settled test above already rules out bar = infinity,
                     so the mu_de >= m_mu branch always survives. *)
                  let bar_e =
                    if exact then Array.unsafe_get bar e else bar0
                  in
                  let survivor =
                    if mu_de >= m_mu then true
                    else (mu_de -. m_mu) /. theta_max > bar_e
                  in
                  if survivor then begin
                    (* Survivor: exact tightness z-score, allocation-free.
                       With de = a + d + r (independent private randoms),
                       Var de and Cov(de, M) decompose into pairwise
                       covariances of the stored forms.  The
                       visit-invariant ones come from the retained rows
                       and tables; the four per-visit covariances are
                       deferred to the lane batch. *)
                    st.s_exact <- st.s_exact + 1;
                    let j = !bn in
                    Array.unsafe_set scratch.b_e j e;
                    Array.unsafe_set scratch.b_s j s;
                    Array.unsafe_set scratch.b_d j d;
                    Array.unsafe_set scratch.b_mu j mu_de;
                    bn := j + 1;
                    if j + 1 = Form_buf.cov4_lanes then begin
                      flush ~n:(j + 1) ~abuf ~rbuf ~out ~ast ~rst ~cov_ae_row
                        ~cov_er_row;
                      bn := 0
                    end
                  end
                  else st.s_screened <- st.s_screened + 1
                end
              end
            done;
            if !bn > 0 then
              flush ~n:!bn ~abuf ~rbuf ~out ~ast ~rst ~cov_ae_row ~cov_er_row
          end
        done
      done
    done
  in
  let states =
    Array.init n_chunks (fun _ ->
        {
          s_keep = Bytes.make (max m 1) '\000';
          s_bar = (if exact then Array.make m bar0 else [||]);
          s_settled = Bytes.make (max m 1) '\000';
          s_exact = 0;
          s_screened = 0;
          s_cone = 0;
        })
  in
  let pool =
    Par.pool (fun () ->
        (* One slab per pool worker backs all its forward workspaces,
           arrival scalar rows and Cov(arrival, edge) tables: a worker
           allocates once, every chunk it screens reuses it.  The slab is
           worker-exclusive, so carving inside the region is safe. *)
        let slab =
          Form_buf.slab_create
            (input_chunk * (ws_floats + srow_floats + tab_floats))
        in
        {
          fwd =
            Array.init input_chunk (fun _ ->
                Propagate.create_workspace ~slab ());
          a_st =
            Array.init input_chunk (fun _ ->
                Form_buf.slab_floats slab srow_floats);
          cov_ae =
            Array.init input_chunk (fun _ ->
                Form_buf.slab_floats slab tab_floats);
          cone = Array.init input_chunk (fun _ -> Array.make (max m 1) 0);
          cone_len = Array.make input_chunk 0;
          blk_lo = Array.make input_chunk 0;
          blk_hi = Array.make input_chunk 0;
          b_s = Array.make Form_buf.cov4_lanes 0;
          b_d = Array.make Form_buf.cov4_lanes 0;
          b_e = Array.make Form_buf.cov4_lanes 0;
          b_mu = Array.make Form_buf.cov4_lanes 0.0;
          b_cov =
            A1.init Bigarray.float64 Bigarray.c_layout
              (Form_buf.cov4_lanes * Form_buf.cov4_size) (fun _ -> 0.0);
          wk = Array.make 2 0.0;
          cm_z = Array.make (max m 1) neg_infinity;
          source1 = [| 0 |];
          slab;
        })
  in
  (* Tiles are processed strictly in ascending output order, and inside a
     tile every chunk visits (edge block, output, input, cone edge) in
     ascending order, so each edge's own visit sequence over the whole
     screen is (j, i) regardless of the tile size or the block layout:
     the per-edge bar/settled trajectory - hence keep, cm_z and both pair
     counters - is bit-identical at every tile size, and (by the
     per-chunk state) at every domain count.  Only the cone counter and
     the RSS depend on the tile size. *)
  for t = 0 to n_tiles - 1 do
    (* Cooperative cancellation point: an armed serve-request deadline
       aborts the screen between output tiles - never inside a tile, so
       per-chunk screening state is never left half-built. *)
    Ssta_robust.Deadline.check ~operation:"criticality.tile";
    let t_lo, t_hi = Par.chunk_bounds ~chunk:tile_sz ~n:no t in
    let tn = t_hi - t_lo in
    let touts = Array.sub outputs t_lo tn in
    (* Backward passes for this tile's outputs: the tile is cut into fixed
       sub-blocks (a function of the tile size only, so the block layout -
       and the backward_blocks count - is domain-invariant) and each
       sub-block advances through one reversed edge pass.  Each block task
       owns its tile slots outright: workspaces, scalar rows, destination
       bitmasks and covariance tables. *)
    let bblock = max 1 ((tn + 7) / 8) in
    let finish_slot k =
      let ws = tile_ws.(k) in
      Propagate.scalar_stats_into ws ~n:nv ~into:req_st.(k);
      Propagate.ws_reach_into ws ~n:nv ~into:omasks.(k);
      Form_buf.cov_dst_into ~forms:fbuf ~verts:(Propagate.ws_buf ws) ~dst
        ~mask:omasks.(k) ~into:cov_er.(k)
    in
    Obs.with_span "criticality.backward" (fun () ->
        Par.run_blocks ~block:bblock ~n:tn
          ~task:(fun lo hi ->
            Propagate.backward_block_into tile_ws g ~forms:fbuf ~outs:touts
              ~lo ~hi;
            for k = lo to hi - 1 do
              finish_slot k
            done)
          ());
    Obs.with_span "criticality.screen" (fun () ->
        Par.run_tasks_pool ~n_tasks:n_chunks ~pool
          ~task:(fun scratch c ->
            let lo, hi = Par.chunk_bounds ~chunk:input_chunk ~n:ni c in
            screen_tile_chunk states.(c) scratch ~t_lo ~tn ~lo ~hi)
          ())
  done;
  (* Merge in chunk-index order (all merges are order-insensitive, but the
     fixed order keeps the determinism argument local). *)
  let keep = Array.make m false in
  let cm_z = Array.make m neg_infinity in
  let exact_evals = ref 0 in
  let screened = ref 0 in
  let cone_edges = ref 0 in
  Array.iter
    (fun st ->
      for e = 0 to m - 1 do
        if Bytes.unsafe_get st.s_keep e <> '\000' then keep.(e) <- true
      done;
      exact_evals := !exact_evals + st.s_exact;
      screened := !screened + st.s_screened;
      cone_edges := !cone_edges + st.s_cone)
    states;
  List.iter
    (fun w ->
      let wz = w.cm_z in
      for e = 0 to m - 1 do
        if wz.(e) > cm_z.(e) then cm_z.(e) <- wz.(e)
      done)
    (Par.pool_members pool);
  let cm =
    Array.map
      (fun z ->
        if z = neg_infinity then 0.0
        else if z = infinity then 1.0
        else Normal.cdf z)
      cm_z
  in
  if Obs.enabled () then begin
    let kept = Array.fold_left (fun n k -> if k then n + 1 else n) 0 keep in
    Obs.add c_exact_evals !exact_evals;
    Obs.add c_screened_pairs !screened;
    Obs.add c_kept_edges kept;
    Obs.add c_removed_edges (m - kept);
    Obs.add c_cone_edges !cone_edges;
    Obs.add c_backward_tiles n_tiles;
    let slab_bytes =
      List.fold_left
        (fun acc w -> acc + Form_buf.slab_peak_bytes w.slab)
        (Form_buf.slab_peak_bytes tile_slab)
        (Par.pool_members pool)
    in
    Obs.gauge_max g_slab_peak slab_bytes
  end;
  { keep; cm; exact_evals = !exact_evals; screened_pairs = !screened }
