(* The design-level flow on one flat slab (Hier_analysis.analyze) against
   the boxed flow it replaced, kept here as a bitwise oracle: every
   instance edge form rewritten by an [Array.sub] + [Mat.tmul_vec] per
   parameter block, both edge lists built and permuted, the boxed forms
   swept by the per-operation boxed sweep of [Sweep_oracle] and the
   outputs folded with its [max_over].  The slab flow must give the same bits for every
   design PO and the design delay, in both replacement modes and at every
   domain count.  Also pinned here: [flat_form]'s bits, the design-model
   bytes of [Extract.extract_design], and the Repair path of a non-finite
   replacement matrix across domain counts. *)

module H = Hier_ssta
module Form = Ssta_canonical.Form
module Mat = Ssta_linalg.Mat
module Pca = Ssta_linalg.Pca
module Basis = Ssta_variation.Basis
module Tile = Ssta_variation.Tile
module Build = Ssta_timing.Build
module Tgraph = Ssta_timing.Tgraph
module Robust = Ssta_robust.Robust
module Par = Ssta_par.Par
module Fp = H.Floorplan

(* ------------------------------------------------------------------ *)
(* The boxed oracle                                                    *)
(* ------------------------------------------------------------------ *)

let oracle_transform_form (dg : H.Design_grid.t) ~mode ~m ~inst (f : Form.t) =
  let dbasis = dg.H.Design_grid.basis in
  let n_params = dbasis.Basis.n_params in
  let m_design = Basis.n_tiles dbasis in
  let n_mod = dg.H.Design_grid.instance_n_tiles.(inst) in
  let pcs = Array.make (n_params * m_design) 0.0 in
  (match mode with
  | H.Replace.Replaced ->
      let m = Option.get m in
      for k = 0 to n_params - 1 do
        let block = Array.sub f.Form.pcs (k * n_mod) n_mod in
        let out = Mat.tmul_vec m block in
        Array.blit out 0 pcs (k * m_design) m_design
      done
  | H.Replace.Global_only ->
      let offset = dg.H.Design_grid.instance_tile_offset.(inst) in
      for k = 0 to n_params - 1 do
        for i = 0 to n_mod - 1 do
          pcs.((k * m_design) + offset + i) <- f.Form.pcs.((k * n_mod) + i)
        done
      done);
  Form.make ~mean:f.Form.mean ~globals:(Array.copy f.Form.globals) ~pcs
    ~rand:f.Form.rand

(* Returns (po_delays, delay). *)
let oracle_analyze (fp : Fp.t) (dg : H.Design_grid.t) ~mode =
  let instances = fp.Fp.instances in
  let graphs =
    Array.map (fun i -> i.Fp.model.H.Timing_model.graph) instances
  in
  let offsets = Array.make (Array.length graphs) 0 in
  let n_vertices = ref 0 in
  Array.iteri
    (fun i g ->
      offsets.(i) <- !n_vertices;
      n_vertices := !n_vertices + Tgraph.n_vertices g)
    graphs;
  let dims = dg.H.Design_grid.basis.Basis.dims in
  let extra_sinks =
    Array.map
      (fun inst -> Array.make (H.Timing_model.n_outputs inst.Fp.model) 0)
      instances
  in
  Array.iter
    (fun ({ Fp.inst; port }, _) ->
      extra_sinks.(inst).(port) <- extra_sinks.(inst).(port) + 1)
    fp.Fp.connections;
  Array.iter
    (fun row -> Array.iteri (fun p k -> row.(p) <- max 0 (k - 1)) row)
    extra_sinks;
  let edges = ref [] and forms = ref [] in
  Array.iteri
    (fun i inst ->
      let g = graphs.(i) in
      let model = inst.Fp.model in
      let model_forms = Sweep_oracle.unpack model.H.Timing_model.forms in
      let load_forms = model.H.Timing_model.output_load in
      let port_of_vertex = Array.make (Tgraph.n_vertices g) (-1) in
      Array.iteri (fun p v -> port_of_vertex.(v) <- p) g.Tgraph.outputs;
      let base_forms =
        Array.mapi
          (fun e f ->
            let p = port_of_vertex.(g.Tgraph.dst.(e)) in
            if p >= 0 && extra_sinks.(i).(p) > 0 then
              Sweep_oracle.add f
                (Form.scale (float_of_int extra_sinks.(i).(p)) load_forms.(p))
            else f)
          model_forms
      in
      let m =
        match mode with
        | H.Replace.Replaced -> Some (H.Replace.matrix dg fp ~inst:i)
        | H.Replace.Global_only -> None
      in
      let tf = Array.map (oracle_transform_form dg ~mode ~m ~inst:i) base_forms in
      Array.iteri
        (fun e s ->
          edges := (offsets.(i) + s, offsets.(i) + g.Tgraph.dst.(e)) :: !edges;
          forms := tf.(e) :: !forms)
        g.Tgraph.src)
    instances;
  let port_in { Fp.inst; port } =
    offsets.(inst) + graphs.(inst).Tgraph.inputs.(port)
  in
  let port_out { Fp.inst; port } =
    offsets.(inst) + graphs.(inst).Tgraph.outputs.(port)
  in
  Array.iter
    (fun (src, dst) ->
      edges := (port_out src, port_in dst) :: !edges;
      forms := Form.constant dims 0.0 :: !forms)
    fp.Fp.connections;
  let inputs = Array.map port_in fp.Fp.ext_inputs in
  let outputs = Array.map port_out fp.Fp.ext_outputs in
  let edges = Array.of_list !edges and weights = Array.of_list !forms in
  let graph, perm =
    Tgraph.make_sorted ~n_vertices:!n_vertices ~edges ~inputs ~outputs
  in
  let forms = Array.map (fun i -> weights.(i)) perm in
  let arrival = Sweep_oracle.forward_all graph ~forms in
  ( Array.map (fun v -> arrival.(v)) graph.Tgraph.outputs,
    Option.get (Sweep_oracle.max_over arrival graph.Tgraph.outputs) )

(* ------------------------------------------------------------------ *)
(* Designs                                                             *)
(* ------------------------------------------------------------------ *)

let c6288 =
  lazy
    (let build = Build.characterize (Ssta_circuit.Iscas.build "c6288") in
     (* Through the model file format, like a design that loads
        pre-extracted models. *)
     let model =
       H.Model_io.of_string (H.Model_io.to_string (H.Extract.extract build))
     in
     (build, model))

(* 3x3 chain: column c row r feeds column c+1 row (r + shift) mod 3, port
   for port - the bench's seeded SoC design, at every shift. *)
let chain3 ~shift =
  let build, model = Lazy.force c6288 in
  let mdie = model.H.Timing_model.die in
  let w = Tile.width mdie and h = Tile.height mdie in
  let die = Tile.make ~x0:0.0 ~y0:0.0 ~x1:(3.0 *. w) ~y1:(3.0 *. h) in
  let inst c r =
    {
      Fp.label = Printf.sprintf "c6288_%d%d" c r;
      build = Some build;
      model;
      origin = (float_of_int c *. w, float_of_int r *. h);
    }
  in
  let connections =
    List.concat_map
      (fun c ->
        List.concat_map
          (fun r ->
            List.init (H.Timing_model.n_outputs model) (fun p ->
                ( { Fp.inst = (c * 3) + r; port = p },
                  { Fp.inst = ((c + 1) * 3) + ((r + shift) mod 3); port = p } )))
          [ 0; 1; 2 ])
      [ 0; 1 ]
  in
  Fp.create ~die
    ~instances:(Array.init 9 (fun k -> inst (k / 3) (k mod 3)))
    ~connections:(Array.of_list connections)

(* Two 4-bit multipliers side by side, instance 0 driving instance 1. *)
let chain2 () = Lazy.force Test_hier_flow.chain_floorplan

let fig7 () =
  let build, model = Lazy.force c6288 in
  Fp.mult_grid ~label:"c6288" ~build ~model ()

let quad () =
  Fp.mult_grid ~label:"quad"
    ~build:(Lazy.force Test_hier_flow.module_build)
    ~model:(Lazy.force Test_hier_flow.module_model)
    ()

(* ------------------------------------------------------------------ *)
(* Bit comparison                                                      *)
(* ------------------------------------------------------------------ *)

let form_bits (f : Form.t) =
  let b = Buffer.create 256 in
  let add x = Buffer.add_string b (Printf.sprintf "%Lx " (Int64.bits_of_float x)) in
  add f.Form.mean;
  Array.iter add f.Form.globals;
  Array.iter add f.Form.pcs;
  add f.Form.rand;
  Buffer.contents b

let form_digest f = Digest.to_hex (Digest.string (form_bits f))

let check_po msg expected actual =
  Alcotest.(check int) (msg ^ ": PO count") (Array.length expected)
    (Array.length actual);
  Array.iteri
    (fun k e ->
      match (e, actual.(k)) with
      | None, None -> ()
      | Some e, Some a -> Sweep_oracle.check_bits (Printf.sprintf "%s: PO %d" msg k) e a
      | _ -> Alcotest.failf "%s: PO %d reachability differs" msg k)
    expected

let modes = [ ("replaced", H.Replace.Replaced); ("global-only", H.Replace.Global_only) ]

let check_design ?dg name fp =
  let dg = match dg with Some dg -> dg | None -> H.Design_grid.build fp in
  List.iter
    (fun (mode_name, mode) ->
      let po, delay = oracle_analyze fp dg ~mode in
      List.iter
        (fun d ->
          let msg = Printf.sprintf "%s %s @%d domains" name mode_name d in
          let r =
            Par.with_domains d (fun () -> H.Hier_analysis.analyze fp dg ~mode)
          in
          check_po msg po r.H.Hier_analysis.po_delays;
          Sweep_oracle.check_bits (msg ^ ": delay") delay r.H.Hier_analysis.delay;
          Alcotest.(check int)
            (msg ^ ": one slab slot per design edge")
            (Tgraph.n_edges r.H.Hier_analysis.graph)
            (Ssta_canonical.Form_buf.length r.H.Hier_analysis.forms))
        [ 1; 2; 4 ])
    modes

let test_fig7 () = check_design "fig7" (fig7 ())

(* The design grid depends on the instances and the die, not on the
   wiring, so the three shifts share one. *)
let test_chain3 () =
  let dg = H.Design_grid.build (chain3 ~shift:0) in
  List.iter
    (fun shift ->
      check_design ~dg (Printf.sprintf "chain3 shift %d" shift) (chain3 ~shift))
    [ 0; 1; 2 ]

let test_chain2 () = check_design "chain2" (chain2 ())

(* ------------------------------------------------------------------ *)
(* Pins                                                                *)
(* ------------------------------------------------------------------ *)

(* Recorded from the boxed flat-SSTA sweep (every vertex boxed, outputs
   folded with [Sweep_oracle.max2]) before it moved onto one slab. *)
let test_flat_form_pinned () =
  let fp = quad () in
  let f = H.Hier_analysis.flat_form fp (H.Design_grid.build fp) in
  Alcotest.(check string)
    "mean bits" "409c378411df440d"
    (Printf.sprintf "%Lx" (Int64.bits_of_float f.Form.mean));
  Alcotest.(check string)
    "variance bits" "40f0695331f9ed80"
    (Printf.sprintf "%Lx" (Int64.bits_of_float (Form.variance f)));
  Alcotest.(check string)
    "every coefficient" "94c7d8f2eebb0f5be6c6f47b8d02c24a" (form_digest f)

(* The design model of the 4-bit quad, bytes recorded from the per-output
   matrix rebuild before the output loads went through the slot kernel;
   the stats line's wall-clock field is zeroed. *)
let test_design_model_pinned () =
  let fp = quad () in
  let dg = H.Design_grid.build fp in
  let res = H.Hier_analysis.analyze fp dg ~mode:H.Replace.Replaced in
  let m = H.Extract.extract_design ~name:"quad_model" fp dg res in
  let m =
    {
      m with
      H.Timing_model.stats =
        { m.H.Timing_model.stats with H.Timing_model.extraction_seconds = 0.0 };
    }
  in
  let text = H.Model_io.to_string m in
  Alcotest.(check int) "bytes" 56331 (String.length text);
  Alcotest.(check string)
    "md5" "3d2c8bb3d0b4526823a6755ff805a500"
    (Digest.to_hex (Digest.string text))

(* A NaN in the design PCA factor poisons a column of every replacement
   matrix built from it.  Under Repair the matrix entries are zeroed and
   counted in the calling domain before any slot is written, so the
   count and the design delay do not depend on the domain count. *)
let test_repair_nan_factor () =
  Robust.with_policy Robust.Repair @@ fun () ->
  let fp = chain2 () in
  let dg = H.Design_grid.build fp in
  let factor = dg.H.Design_grid.basis.Basis.pca.Pca.factor in
  Mat.set factor dg.H.Design_grid.instance_tile_offset.(1) 0 Float.nan;
  let nan_sanitized = Robust.counter "robust.nan_sanitized" in
  let run d =
    let before = Robust.value nan_sanitized in
    let r =
      Par.with_domains d (fun () ->
          H.Hier_analysis.analyze fp dg ~mode:H.Replace.Replaced)
    in
    (Robust.value nan_sanitized - before, r.H.Hier_analysis.delay)
  in
  let n1, d1 = run 1 and n4, d4 = run 4 in
  Alcotest.(check bool) "entries repaired" true (n1 > 0);
  Alcotest.(check int) "same repair count at 1 and 4 domains" n1 n4;
  Alcotest.(check bool) "finite delay" true (Robust.is_finite d1.Form.mean);
  Sweep_oracle.check_bits "same delay at 1 and 4 domains" d1 d4

(* One instance whose model (and netlist graph) keeps its ports but has
   no edge: no design output is reachable from a design input, which both
   design-level sweeps report as a structured error, not a [Failure]. *)
let test_unreachable_outputs_error () =
  let b = Lazy.force Test_hier_flow.module_build in
  let m = Lazy.force Test_hier_flow.module_model in
  let edgeless (g : Tgraph.t) =
    Tgraph.make ~n_vertices:g.Tgraph.n_vertices ~edges:[||]
      ~inputs:g.Tgraph.inputs ~outputs:g.Tgraph.outputs
  in
  let build =
    {
      b with
      Build.graph = edgeless b.Build.graph;
      forms = Ssta_canonical.Form_buf.create b.Build.basis.Basis.dims 0;
      sparse = [||];
    }
  in
  let model =
    {
      m with
      H.Timing_model.graph = edgeless m.H.Timing_model.graph;
      forms =
        Ssta_canonical.Form_buf.create
          m.H.Timing_model.basis.Basis.dims 0;
    }
  in
  let fp =
    Fp.create ~die:m.H.Timing_model.die
      ~instances:
        [|
          { Fp.label = "open"; build = Some build; model; origin = (0.0, 0.0) };
        |]
      ~connections:[||]
  in
  let dg = H.Design_grid.build fp in
  let expect operation f =
    match f () with
    | _ -> Alcotest.failf "%s: no error on an unreachable design" operation
    | exception Robust.Error c ->
        Alcotest.(check string) (operation ^ " subsystem") "hier_analysis"
          c.Robust.subsystem;
        Alcotest.(check string) (operation ^ " operation") operation
          c.Robust.operation
  in
  expect "analyze" (fun () ->
      ignore (H.Hier_analysis.analyze fp dg ~mode:H.Replace.Replaced));
  expect "flat_form" (fun () -> ignore (H.Hier_analysis.flat_form fp dg))

let suites =
  [
    ( "hier_slab.oracle",
      [
        Alcotest.test_case "Fig. 7 bit-equal to the boxed flow" `Quick test_fig7;
        Alcotest.test_case "3x3 chain, every shift, bit-equal" `Slow test_chain3;
        Alcotest.test_case "2-module chain bit-equal" `Quick test_chain2;
      ] );
    ( "hier_slab.pins",
      [
        Alcotest.test_case "flat_form bits" `Quick test_flat_form_pinned;
        Alcotest.test_case "design model bytes" `Quick test_design_model_pinned;
        Alcotest.test_case "Repair of a NaN factor entry, 1 vs 4 domains" `Quick
          test_repair_nan_factor;
        Alcotest.test_case "no reachable output is a structured error" `Quick
          test_unreachable_outputs_error;
      ] );
  ]
