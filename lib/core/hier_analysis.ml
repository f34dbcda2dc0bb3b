module Form = Ssta_canonical.Form
module Form_buf = Ssta_canonical.Form_buf
module Tgraph = Ssta_timing.Tgraph
module Basis = Ssta_variation.Basis
module Build = Ssta_timing.Build

type result = {
  graph : Tgraph.t;
  forms : Form_buf.t;
  po_delays : Form.t option array;
  delay : Form.t;
  setup_seconds : float;
  propagate_seconds : float;
  wall_seconds : float;
}

module Obs = Ssta_obs.Obs

let stitch_vertices graphs =
  let n = Array.length graphs in
  let offsets = Array.make n 0 in
  let total = ref 0 in
  Array.iteri
    (fun i g ->
      offsets.(i) <- !total;
      total := !total + Tgraph.n_vertices g)
    graphs;
  (offsets, !total)

(* Sweep the edge slab from the graph's inputs into a fresh workspace. *)
let sweep graph forms =
  let ws = Propagate.create_workspace () in
  Propagate.forward_into ws graph ~forms ~sources:graph.Tgraph.inputs;
  ws

(* The design delay: the max over the swept outputs, folded in the
   workspace. *)
let max_delay ~operation ws graph =
  let outputs = graph.Tgraph.outputs in
  match Propagate.ws_max_over ws outputs with
  | Some d -> d
  | None ->
      Ssta_robust.Robust.fail ~subsystem:"hier_analysis" ~operation
        ~indices:[ Array.length outputs ]
        "no design output is reachable from any design input"

let analyze (fp : Floorplan.t) (dg : Design_grid.t) ~mode =
  let sp_setup = Obs.span_begin "hier.setup" in
  let t0 = Unix.gettimeofday () in
  let instances = fp.Floorplan.instances in
  let n_inst = Array.length instances in
  let graphs =
    Array.map (fun i -> i.Floorplan.model.Timing_model.graph) instances
  in
  let offsets, n_vertices = stitch_vertices graphs in
  let dims = dg.Design_grid.basis.Basis.dims in
  (* External sinks per (instance, output port): each sink beyond the one
     the characterization assumed costs the port's load increment. *)
  let extra_sinks =
    Array.map
      (fun inst ->
        Array.make (Timing_model.n_outputs inst.Floorplan.model) 0)
      instances
  in
  Array.iter
    (fun ({ Floorplan.inst; port }, _) ->
      extra_sinks.(inst).(port) <- extra_sinks.(inst).(port) + 1)
    fp.Floorplan.connections;
  Array.iter
    (fun row ->
      Array.iteri (fun p k -> row.(p) <- max 0 (k - 1)) row)
    extra_sinks;
  let port_in { Floorplan.inst; port } =
    offsets.(inst) + graphs.(inst).Tgraph.inputs.(port)
  in
  let port_out { Floorplan.inst; port } =
    offsets.(inst) + graphs.(inst).Tgraph.outputs.(port)
  in
  (* Stitch first.  The design graph is sorted from the edge list this flow
     has always built - module edges instance by instance, then the
     interconnect, the whole list reversed - so [make_sorted]'s order, and
     with it every fanin fold, is unchanged.  [first.(i)] is the position
     of instance [i]'s edge 0 in that list before the reversal. *)
  let first = Array.make (n_inst + 1) 0 in
  Array.iteri (fun i g -> first.(i + 1) <- first.(i) + Tgraph.n_edges g) graphs;
  let n_module = first.(n_inst) in
  let n_edges = n_module + Array.length fp.Floorplan.connections in
  let edges = Array.make n_edges (0, 0) in
  let put p e = edges.(n_edges - 1 - p) <- e in
  Array.iteri
    (fun i g ->
      Array.iteri
        (fun e s ->
          put (first.(i) + e) (offsets.(i) + s, offsets.(i) + g.Tgraph.dst.(e)))
        g.Tgraph.src)
    graphs;
  Array.iteri
    (fun c (src, dst) -> put (n_module + c) (port_out src, port_in dst))
    fp.Floorplan.connections;
  let inputs = Array.map port_in fp.Floorplan.ext_inputs in
  let outputs = Array.map port_out fp.Floorplan.ext_outputs in
  let graph, perm = Tgraph.make_sorted ~n_vertices ~edges ~inputs ~outputs in
  (* [slot.(p)]: the design slot of module edge [p]; interconnect slots
     keep the zero form the slab starts as. *)
  let slot = Array.make n_module 0 in
  Array.iteri
    (fun s o ->
      let p = n_edges - 1 - o in
      if p < n_module then slot.(p) <- s)
    perm;
  let forms = Form_buf.create dims n_edges in
  Obs.with_span "replace.transform_instance" (fun () ->
      (* Validation, load increments and the replacement matrices run here
         in the calling domain, instance by instance, so robust repairs
         and strict errors come in the same order as a sequential flow;
         only the slot kernel fans out, each task writing its own
         instance's slots. *)
      let jobs =
        Array.mapi
          (fun i inst ->
            let g = graphs.(i) in
            let model = inst.Floorplan.model in
            (* Validated boundary: instance models arrive from disk or from
               earlier extractions; their forms and load increments are
               checked (and, under Repair/Warn, sanitized) before
               stitching. *)
            let model_forms =
              Form_buf.sanitize ~subsystem:"hier_analysis"
                ~operation:("analyze:" ^ inst.Floorplan.label)
                model.Timing_model.forms
            in
            let mdims = model.Timing_model.basis.Basis.dims in
            let load_forms =
              let l = model.Timing_model.output_load in
              let buf = Form_buf.create mdims (Array.length l) in
              Array.iteri (Form_buf.set buf) l;
              Form_buf.sanitize ~subsystem:"hier_analysis"
                ~operation:("analyze.output_load:" ^ inst.Floorplan.label)
                buf
            in
            (* Output-port index per model vertex (for load increments). *)
            let port_of_vertex = Array.make (Tgraph.n_vertices g) (-1) in
            Array.iteri
              (fun p v -> port_of_vertex.(v) <- p)
              g.Tgraph.outputs;
            (* An arc into a port with extra sinks gains [k] times the
               port's load increment, in a copy of the model's slab made
               on the first such arc; every other slot is read as is. *)
            let base_forms = ref model_forms in
            let inc = Form_buf.create mdims 1 in
            for e = 0 to Form_buf.length model_forms - 1 do
              let p = port_of_vertex.(g.Tgraph.dst.(e)) in
              if p >= 0 && extra_sinks.(i).(p) > 0 then begin
                if !base_forms == model_forms then
                  base_forms := Form_buf.copy model_forms;
                Form_buf.scale_into
                  ~alpha:(float_of_int extra_sinks.(i).(p))
                  ~a:load_forms ~ia:p ~dst:inc ~idst:0;
                Form_buf.add_into ~a:!base_forms ~ia:e ~b:inc ~ib:0
                  ~dst:!base_forms ~idst:e
              end
            done;
            (Replace.pc_map dg fp ~mode ~inst:i, !base_forms))
          instances
      in
      Ssta_par.Par.run_tasks ~n_tasks:n_inst ~init:ignore
        ~task:(fun () i ->
          let map, base_forms = jobs.(i) in
          Replace.transform_into map base_forms ~dst:forms
            ~slot:(fun e -> slot.(first.(i) + e)))
        ());
  let t1 = Unix.gettimeofday () in
  Obs.span_end sp_setup;
  let sp_prop = Obs.span_begin "hier.propagate" in
  (* Kernel-tier sweep of the slab; only the design outputs are boxed. *)
  let ws = sweep graph forms in
  let po_delays = Array.map (Propagate.ws_form ws) graph.Tgraph.outputs in
  let delay = max_delay ~operation:"analyze" ws graph in
  let t2 = Unix.gettimeofday () in
  Obs.span_end sp_prop;
  {
    graph;
    forms;
    po_delays;
    delay;
    setup_seconds = t1 -. t0;
    propagate_seconds = t2 -. t1;
    wall_seconds = t2 -. t0;
  }

let flatten_graph (fp : Floorplan.t) =
  let instances = fp.Floorplan.instances in
  let build_of (i : Floorplan.instance) =
    match i.Floorplan.build with
    | Some b -> b
    | None ->
        failwith
          (Printf.sprintf
             "Hier_analysis: instance %s is gray-box (no netlist); flattened \
              analysis is impossible - that is the point of timing models"
             i.Floorplan.label)
  in
  let graphs = Array.map (fun i -> (build_of i).Build.graph) instances in
  let offsets, n_vertices = stitch_vertices graphs in
  let edges = ref [] and payload = ref [] in
  Array.iteri
    (fun i inst ->
      let g = graphs.(i) in
      Array.iteri
        (fun e s ->
          edges := (offsets.(i) + s, offsets.(i) + g.Tgraph.dst.(e)) :: !edges;
          payload := `Module (i, e) :: !payload)
        g.Tgraph.src;
      ignore inst)
    instances;
  let port_in { Floorplan.inst; port } =
    offsets.(inst) + graphs.(inst).Tgraph.inputs.(port)
  in
  let port_out { Floorplan.inst; port } =
    offsets.(inst) + graphs.(inst).Tgraph.outputs.(port)
  in
  Array.iter
    (fun (src, dst) ->
      edges := (port_out src, port_in dst) :: !edges;
      payload := `Interconnect :: !payload)
    fp.Floorplan.connections;
  let inputs = Array.map port_in fp.Floorplan.ext_inputs in
  let outputs = Array.map port_out fp.Floorplan.ext_outputs in
  let graph, perm =
    Tgraph.make_sorted ~n_vertices ~edges:(Array.of_list !edges) ~inputs
      ~outputs
  in
  let payload = Array.of_list !payload in
  (graph, Array.map (fun i -> payload.(i)) perm)

let flatten (fp : Floorplan.t) (dg : Design_grid.t) =
  let graph, payload = flatten_graph fp in
  let zero_edge =
    { Build.nominal = 0.0; sens = [||]; tile = 0; random_sigma = 0.0 }
  in
  let sparse =
    Array.map
      (function
        | `Interconnect -> zero_edge
        | `Module (i, e) ->
            let s =
              match fp.Floorplan.instances.(i).Floorplan.build with
              | Some b -> b.Build.sparse.(e)
              | None -> assert false (* flatten_graph already checked *)
            in
            {
              s with
              Build.tile =
                Design_grid.design_tile_of_instance dg ~inst:i s.Build.tile;
            })
      payload
  in
  { Ssta_mc.Sampler.graph; sparse; basis = dg.Design_grid.basis }

let flat_form (fp : Floorplan.t) (dg : Design_grid.t) =
  let graph, payload = flatten_graph fp in
  let dbasis = dg.Design_grid.basis in
  let forms = Form_buf.create dbasis.Basis.dims (Array.length payload) in
  Array.iteri
    (fun slot -> function
      | `Interconnect -> () (* the zero form the slab starts as *)
      | `Module (i, e) ->
          let s =
            match fp.Floorplan.instances.(i).Floorplan.build with
            | Some b -> b.Build.sparse.(e)
            | None -> assert false (* flatten_graph already checked *)
          in
          Form_buf.set forms slot
            (Basis.delay_form dbasis ~nominal:s.Build.nominal
               ~tile:
                 (Design_grid.design_tile_of_instance dg ~inst:i s.Build.tile)
               ~sens:s.Build.sens
               ~extra_random_sigma:
                 (let vr =
                    dbasis.Basis.corr.Ssta_variation.Correlation.var_random
                  in
                  let param_rand =
                    Array.fold_left
                      (fun acc sv ->
                        acc
                        +. (s.Build.nominal *. sv *. s.Build.nominal *. sv *. vr))
                      0.0 s.Build.sens
                  in
                  sqrt
                    (Float.max 0.0
                       ((s.Build.random_sigma *. s.Build.random_sigma)
                       -. param_rand)))
               (* delay_form re-adds the parameter random variance; pass
                  only the load component so the total random sigma matches
                  the module characterization *)))
    payload;
  max_delay ~operation:"flat_form" (sweep graph forms) graph
