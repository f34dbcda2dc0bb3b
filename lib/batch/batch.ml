module Form = Ssta_canonical.Form
module Form_buf = Ssta_canonical.Form_buf
module Build = Ssta_timing.Build
module Tgraph = Ssta_timing.Tgraph
module Basis = Ssta_variation.Basis
module Grid = Ssta_variation.Grid
module Tile = Ssta_variation.Tile
module Par = Ssta_par.Par
module Obs = Ssta_obs.Obs
module Propagate = Hier_ssta.Propagate
module Corners = Hier_ssta.Corners
module Criticality = Hier_ssta.Criticality

(* Scenario-batch engine: evaluate S structured deltas over one base
   design in a single invocation, sharing every scenario-invariant piece -
   the topological edge order (Tgraph), the PCA basis, the packed base
   edge forms - across the whole batch.
   Per-scenario state lives on slab-backed Form_buf storage carved once
   per pool worker, and the worker pool lives on the base, so scenario S+1
   - of this run or of any later run on the same base - reuses scenario
   S's allocation.

   Determinism: Delay mode runs one task per scenario and Io mode runs
   scenarios in order through Propagate.io_delays (one task per input) -
   never a layout that depends on the domain count - every task writes
   only its own result slot, and a worker's scratch is fully re-derived
   per scenario (the scenario-forms cache only skips re-deriving
   *identical* content), so batch results are bit-identical at every
   domain count and to S independent single-scenario runs. *)

let g_slab_peak = Obs.gauge "batch.slab_bytes_peak"
let c_scenarios = Obs.counter "batch.scenarios"
let c_scratch_builds = Obs.counter "batch.scratch_builds"

type grid_variant = Uniform | Gradient of { gx : float; gy : float }

type scenario = {
  label : string;
  corner : Corners.corner;
  delay_scale : float;
  sigma_scale : float;
  grid_variant : grid_variant;
  delta : float;
}

let nominal ?(label = "nominal") () =
  {
    label;
    corner = Corners.Nominal;
    delay_scale = 1.0;
    sigma_scale = 1.0;
    grid_variant = Uniform;
    delta = 0.05;
  }

(* A deterministic default grid over the scenario axes, for the CLI and
   benches: corners cycle, the deterministic scale sweeps +/- a few
   percent, every other scenario applies a spatial gradient. *)
let default_scenarios n =
  Array.init n (fun i ->
      let corner =
        match i mod 4 with
        | 0 -> Corners.Nominal
        | 1 -> Corners.Slow 3.0
        | 2 -> Corners.Fast 3.0
        | _ -> Corners.Global_slow 3.0
      in
      let delay_scale = 1.0 +. (0.02 *. float_of_int (i mod 5)) in
      let sigma_scale = 1.0 +. (0.05 *. float_of_int (i mod 3)) in
      let grid_variant =
        if i mod 2 = 0 then Uniform
        else
          Gradient
            {
              gx = 0.05 *. float_of_int (1 + (i mod 3));
              gy = 0.03 *. float_of_int (i mod 2);
            }
      in
      {
        label = Printf.sprintf "s%02d" i;
        corner;
        delay_scale;
        sigma_scale;
        grid_variant;
        delta = 0.05;
      })

type mode = Delay | Io

type result = {
  scenario : scenario;
  delay : Form.t option;
  out_mu : float array;
  out_sigma : float array;
  io : Form.t option array array;
  kept_edges : int;
}

(* Pool-worker scratch: one slab backs both the scenario form buffer and
   the sweep workspace, so each worker performs exactly one bigarray
   allocation for the lifetime of its base.  [cached] is the scenario
   whose forms [sforms] holds, compared physically: scenarios are
   immutable and the base is fixed, so the same record means the same
   forms, in this run or any later one. *)
type scratch = {
  slab : Form_buf.slab;
  sforms : Form_buf.t;
  ws : Propagate.workspace;
  corner_w : float array;
  tile_f : float array;
  mutable cached : scenario option;
}

type base = {
  build : Build.t;
  m : int;
  edge_tile : int array;
  tile_fx : float array;
  tile_fy : float array;
  pool : scratch Par.pool;
  io_pool : Propagate.workspace Par.pool;
      (** per-input sweep workspaces of Io mode, kept across scenarios and
          runs *)
}

let make_scratch ~dims ~m ~nv ~nt () =
  Obs.incr c_scratch_builds;
  let slab =
    Form_buf.slab_create
      (Form_buf.floats_needed dims m + Form_buf.floats_needed dims nv)
  in
  let sforms = Form_buf.create ~slab dims m in
  let ws = Propagate.create_workspace ~slab () in
  {
    slab;
    sforms;
    ws;
    corner_w = Array.make (max m 1) 0.0;
    tile_f = Array.make (max nt 1) 1.0;
    cached = None;
  }

let prepare (b : Build.t) =
  Obs.with_span "batch.prepare" @@ fun () ->
  let dims = b.Build.basis.Basis.dims in
  let g = b.Build.graph in
  let m = Tgraph.n_edges g in
  let nv = Tgraph.n_vertices g in
  let grid = b.Build.grid in
  let nt = Grid.n_tiles grid in
  (* Normalized tile-center coordinates in [0, 1): the Gradient variant's
     per-tile factor is 1 + gx * xn + gy * yn over these. *)
  let w = float_of_int grid.Grid.nx *. grid.Grid.pitch in
  let h = float_of_int grid.Grid.ny *. grid.Grid.pitch in
  let tile_fx = Array.make nt 0.0 and tile_fy = Array.make nt 0.0 in
  Array.iteri
    (fun i tl ->
      let cx, cy = Tile.center tl in
      tile_fx.(i) <- (cx -. grid.Grid.x0) /. w;
      tile_fy.(i) <- (cy -. grid.Grid.y0) /. h)
    grid.Grid.tiles;
  let edge_tile = Array.map (fun s -> s.Build.tile) b.Build.sparse in
  {
    build = b;
    m;
    edge_tile;
    tile_fx;
    tile_fy;
    pool = Par.pool (make_scratch ~dims ~m ~nv ~nt);
    io_pool = Par.pool (fun () -> Propagate.create_workspace ());
  }

(* Materialize scenario [s]'s edge forms into the worker's slab-backed
   buffer: mean from the corner model scaled by the scenario's
   deterministic factor, coefficients from the base form scaled by the
   sigma factor.  Fully overwrites every slot, so the [cached] skip can
   only ever avoid re-deriving identical content. *)
let set_scenario base scr (s : scenario) =
  if not (match scr.cached with Some c -> c == s | None -> false) then begin
    scr.cached <- None;
    Corners.corner_weights_into base.build s.corner ~into:scr.corner_w;
    let nt = Array.length base.tile_fx in
    (match s.grid_variant with
    | Uniform -> Array.fill scr.tile_f 0 nt 1.0
    | Gradient { gx; gy } ->
        for t = 0 to nt - 1 do
          scr.tile_f.(t) <-
            1.0 +. (gx *. base.tile_fx.(t)) +. (gy *. base.tile_fy.(t))
        done);
    let fbuf = base.build.Build.forms
    and sforms = scr.sforms
    and edge_tile = base.edge_tile
    and corner_w = scr.corner_w
    and tile_f = scr.tile_f in
    for e = 0 to base.m - 1 do
      let alpha =
        s.delay_scale *. Array.unsafe_get tile_f (Array.unsafe_get edge_tile e)
      in
      let beta = alpha *. s.sigma_scale in
      Form_buf.recompose_into
        ~mean:(alpha *. Array.unsafe_get corner_w e)
        ~beta ~a:fbuf ~ia:e ~dst:sforms ~idst:e
    done;
    scr.cached <- Some s
  end

(* Design delay and per-output mean/sigma read off the workspace; only the
   delay is boxed. *)
let summarize_outputs scr outputs =
  let ws = scr.ws in
  let stat f =
    Array.map
      (fun v ->
        if Propagate.ws_reached ws v then f (Propagate.ws_buf ws) v else nan)
      outputs
  in
  (Propagate.ws_max_over ws outputs, stat Form_buf.mean, stat Form_buf.std)

let run ?(mode = Delay) ?(screen = false) base scenarios =
  Obs.with_span "batch.run" @@ fun () ->
  let s_n = Array.length scenarios in
  let g = base.build.Build.graph in
  let inputs = g.Tgraph.inputs and outputs = g.Tgraph.outputs in
  let results = Array.make s_n None in
  let pool = base.pool in
  (match mode with
  | Delay ->
      (* One task per scenario: forms, one all-PI forward sweep, output
         summaries. *)
      Par.run_tasks_pool ~n_tasks:s_n ~pool
        ~task:(fun scr k ->
          Obs.with_span "batch.scenario" @@ fun () ->
          (* Cooperative cancellation point: a serve request deadline
             expiring mid-batch aborts between scenarios, never inside a
             sweep (Par joins all workers before re-raising). *)
          Ssta_robust.Deadline.check ~operation:"batch.scenario";
          let s = scenarios.(k) in
          set_scenario base scr s;
          Propagate.forward_into scr.ws g ~forms:scr.sforms ~sources:inputs;
          let delay, out_mu, out_sigma = summarize_outputs scr outputs in
          results.(k) <-
            Some
              {
                scenario = s;
                delay;
                out_mu;
                out_sigma;
                io = [||];
                kept_edges = -1;
              })
        ()
  | Io ->
      (* One pool scratch holds each scenario's forms in turn; the
         per-input sweeps are the IO-delay engine's own parallel region. *)
      let scr = Par.pool_take pool in
      Fun.protect ~finally:(fun () -> Par.pool_put pool scr) @@ fun () ->
      Array.iteri
        (fun k s ->
          Obs.with_span "batch.scenario" @@ fun () ->
          Ssta_robust.Deadline.check ~operation:"batch.io";
          set_scenario base scr s;
          results.(k) <-
            Some
              {
                scenario = s;
                delay = None;
                out_mu = Array.make (Array.length outputs) nan;
                out_sigma = Array.make (Array.length outputs) nan;
                io = Propagate.io_delays ~pool:base.io_pool g ~forms:scr.sforms;
                kept_edges = -1;
              })
        scenarios);
  Obs.add c_scenarios s_n;
  (* Criticality screening is itself a parallel region (it builds its own
     pool), so it runs sequentially over scenarios after the batch sweep -
     nesting domain pools would oversubscribe without changing results. *)
  let results =
    Array.map (function Some r -> r | None -> assert false) results
  in
  let results =
    if not screen then results
    else begin
      let scr = Par.pool_take pool in
      Fun.protect ~finally:(fun () -> Par.pool_put pool scr) @@ fun () ->
      Array.map
        (fun r ->
          Obs.with_span "batch.screen" @@ fun () ->
          set_scenario base scr r.scenario;
          let crit =
            Criticality.compute ~delta:r.scenario.delta g ~forms:scr.sforms
          in
          let kept =
            Array.fold_left
              (fun n keep -> if keep then n + 1 else n)
              0 crit.Criticality.keep
          in
          { r with kept_edges = kept })
        results
    end
  in
  if Obs.enabled () then
    List.iter
      (fun scr -> Obs.gauge_max g_slab_peak (Form_buf.slab_peak_bytes scr.slab))
      (Par.pool_members pool);
  results

let run_one ?mode ?screen base s = (run ?mode ?screen base [| s |]).(0)

(* ------------------------------------------------------------------ *)
(* Scenario-spec JSON                                                  *)
(* ------------------------------------------------------------------ *)

module Json = Ssta_json.Json
module Robust = Ssta_robust.Robust

(* Malformed scenario specs funnel through the graceful-degradation
   layer: under Strict each defect raises a structured Robust.Error
   naming the offending entry; under Repair/Warn the repair counter
   fires and the documented default is substituted, so a spec stream
   (CLI file or serve request) degrades instead of dying on a bare
   exception. *)
let c_scenario_repairs = Robust.counter "robust.scenario_repairs"

let spec_repair ~operation ?indices ?values detail =
  Robust.repair c_scenario_repairs
    (Robust.context ~subsystem:"batch" ~operation ?indices ?values detail)


(* Default substituted by the repair path for an unusable entry (or, for
   an unusable spec, as the whole batch). *)
let repaired_default idx = nominal ~label:(Printf.sprintf "s%02d" idx) ()

let scenario_of_json idx j =
  let fallback = repaired_default idx in
  match j with
  | Json.Obj _ ->
      (* A field that is present with the wrong type, or a malformed
         value, is repaired to that field's default; Strict raises. *)
      let num ~default k =
        match Json.num_field ~default k j with
        | Ok v -> v
        | Error msg ->
            spec_repair ~operation:"scenario_of_json" ~indices:[ idx ] msg;
            default
      in
      let str ~default k =
        match Json.str_field ~default k j with
        | Ok v -> v
        | Error msg ->
            spec_repair ~operation:"scenario_of_json" ~indices:[ idx ] msg;
            default
      in
      let label = str ~default:(Printf.sprintf "s%02d" idx) "label" in
      let k_sigma =
        let k = num ~default:3.0 "k" in
        if Robust.is_finite k then k
        else begin
          spec_repair ~operation:"scenario_of_json" ~indices:[ idx ]
            ~values:[ k ] "corner sigma multiplier k must be finite";
          3.0
        end
      in
      let corner =
        match String.lowercase_ascii (str ~default:"nominal" "corner") with
        | "nominal" -> Corners.Nominal
        | "slow" -> Corners.Slow k_sigma
        | "fast" -> Corners.Fast k_sigma
        | "global_slow" | "global-slow" -> Corners.Global_slow k_sigma
        | other ->
            spec_repair ~operation:"scenario_of_json" ~indices:[ idx ]
              (Printf.sprintf
                 "corner %S is not nominal/slow/fast/global_slow" other);
            Corners.Nominal
      in
      let finite ~default ~what v =
        if Robust.is_finite v then v
        else begin
          spec_repair ~operation:"scenario_of_json" ~indices:[ idx ]
            ~values:[ v ] (what ^ " must be finite");
          default
        end
      in
      let gx = finite ~default:0.0 ~what:"grad_x" (num ~default:0.0 "grad_x")
      and gy =
        finite ~default:0.0 ~what:"grad_y" (num ~default:0.0 "grad_y")
      in
      let grid_variant =
        if gx = 0.0 && gy = 0.0 then Uniform else Gradient { gx; gy }
      in
      let delta =
        let d = num ~default:0.05 "delta" in
        if d > 0.0 && d < 1.0 then d
        else begin
          spec_repair ~operation:"scenario_of_json" ~indices:[ idx ]
            ~values:[ d ] "delta must lie in (0, 1)";
          0.05
        end
      in
      let delay_scale =
        let v = num ~default:1.0 "delay_scale" in
        if Robust.is_finite v && v > 0.0 then v
        else begin
          spec_repair ~operation:"scenario_of_json" ~indices:[ idx ]
            ~values:[ v ] "delay_scale must be finite and positive";
          1.0
        end
      in
      let sigma_scale =
        let v = num ~default:1.0 "sigma_scale" in
        if Robust.is_finite v && v >= 0.0 then v
        else begin
          spec_repair ~operation:"scenario_of_json" ~indices:[ idx ]
            ~values:[ v ] "sigma_scale must be finite and non-negative";
          0.0
        end
      in
      { label; corner; delay_scale; sigma_scale; grid_variant; delta }
  | _ ->
      spec_repair ~operation:"scenario_of_json" ~indices:[ idx ]
        "scenario entries must be objects";
      fallback

let scenarios_of_json j =
  match j with
  | Json.Arr items -> Array.of_list (List.mapi scenario_of_json items)
  | _ ->
      spec_repair ~operation:"scenarios_of_json"
        "scenario spec must be a JSON array of objects";
      [| repaired_default 0 |]

let parse_scenarios text =
  match Json.parse text with
  | Ok j -> Ok (scenarios_of_json j)
  | Error msg ->
      spec_repair ~operation:"parse_scenarios" msg;
      Ok [| repaired_default 0 |]
