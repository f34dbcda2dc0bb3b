(* hier-soc: design-level analysis from pre-extracted c6288 models, the
   paper's Section V flow.  Set-up extracts the model and round-trips it
   through its file format; each op then analyzes two designs:
   - Fig. 7's 2x2 grid (Floorplan.mult_grid), and
   - a 3x3 chain: column c row r feeds column c+1 row (r + s) mod 3 port
     for port, with s drawn from the seed.
   There is no criticality here: the design-grid PCA and the replacement
   and propagation dominate, and their cost grows superlinearly with the
   tile count (100 -> 225). *)

open Flow
module Build = Ssta_timing.Build
module Form = Ssta_canonical.Form
module Tile = Ssta_variation.Tile
module Fp = H.Floorplan

let mc_iterations = 1000

let chain3 ~shift ~build ~(model : H.Timing_model.t) =
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
  let instances = Array.init 9 (fun k -> inst (k / 3) (k mod 3)) in
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
  Fp.create ~die ~instances ~connections:(Array.of_list connections)

type state = {
  designs : (string * Fp.t) array;
  read_mb_per_s : float;
}

let setup_designs ~seed () =
  let build = Build.characterize (Ssta_circuit.Iscas.build "c6288") in
  let text = H.Model_io.to_string (H.Extract.extract build) in
  let t0 = now () in
  let model = H.Model_io.of_string text in
  let read_s = now () -. t0 in
  {
    designs =
      [|
        ("fig7", Fp.mult_grid ~label:"c6288" ~build ~model ());
        ("soc9", chain3 ~shift:(Ledger.Gen.soc_shift ~seed) ~build ~model);
      |];
    read_mb_per_s = float_of_int (String.length text) /. 1e6 /. read_s;
  }

let analyze fp =
  let dg = Trace.span ~harvest:true "design_grid.build" (fun () -> H.Design_grid.build fp) in
  let r =
    Trace.span ~harvest:true "hier_analysis.analyze" (fun () ->
        H.Hier_analysis.analyze fp dg ~mode:H.Replace.Replaced)
  in
  (dg, r)

let bits (f : Form.t) = (Int64.bits_of_float f.Form.mean, Int64.bits_of_float (Form.std f))

let run ~seed ~seconds ~trace =
  let st, su = setup (setup_designs ~seed) in
  let n = Array.length st.designs in
  let times = Array.make n [] in
  (* [first] keeps only the first round's delay bits, so every round holds
     as much live state as the first, where the peak is read *)
  let first = Array.make n None and last = Array.make n None in
  let ops =
    loop ~seconds ~trace ~names:[| "round" |] ~setup:su
      ~after:(fun _ ->
        Array.iteri
          (fun k (name, _) ->
            match (first.(k), last.(k)) with
            | Some a, Some (_, b) ->
                check (a = bits b.H.Hier_analysis.delay)
                  "%s: design delay changed between rounds" name
            | _ -> fail "%s: no analysis" name)
          st.designs)
      (fun _ ->
        Array.iteri
          (fun k (_, fp) ->
            last.(k) <- None;
            let t0 = now () in
            let ((_, r) as res) = analyze fp in
            times.(k) <- (now () -. t0) :: times.(k);
            last.(k) <- Some res;
            if first.(k) = None then first.(k) <- Some (bits r.H.Hier_analysis.delay))
          st.designs)
  in
  (* Accuracy after the timed phase: each design delay against a seeded
     Monte Carlo of the flattened gate-level design. *)
  let mc_s = Array.make n 0.0 in
  let ks_max = ref 0.0 and merr = ref 0.0 and verr = ref 0.0 in
  let median_ms k = 1000.0 *. Stats.median (Array.of_list times.(k)) in
  Array.iteri
    (fun k (name, fp) ->
      let dg, r = Option.get last.(k) in
      let mc =
        Ssta_mc.Flat_mc.run ~iterations:mc_iterations ~seed
          (H.Hier_analysis.flatten fp dg)
      in
      mc_s.(k) <- mc.Ssta_mc.Flat_mc.wall_seconds;
      let delays = mc.Ssta_mc.Flat_mc.delays in
      let d = r.H.Hier_analysis.delay in
      let ks = Ssta_gauss.Stats.ks_distance delays (Form.cdf d) in
      let mm = Ssta_gauss.Stats.mean delays and ms = Ssta_gauss.Stats.std delays in
      let me = Float.abs (d.Form.mean -. mm) /. mm
      and ve = Float.abs (Form.std d -. ms) /. ms in
      Printf.printf
        "  %-5s %3d tiles  %8.2f ms per analysis  mean %+.2f%%  sigma %+.2f%%  KS %.4f vs MC\n"
        name
        (Array.length dg.H.Design_grid.tiles)
        (median_ms k)
        (100.0 *. (d.Form.mean -. mm) /. mm)
        (100.0 *. (Form.std d -. ms) /. ms)
        ks;
      (* Fig. 7 reports KS 0.044; seeds 1-10 give 0.023-0.071 here, the
         model's bias plus the noise of 1000 samples (~0.03). *)
      check (ks < 0.12) "%s: KS distance %.4f vs Monte Carlo >= 0.12" name ks;
      if seed = 42 && name = "fig7" then begin
        let s = Printf.sprintf "%.17g" ks in
        match golden_value "fig7_ks@42" with
        | Some g -> check (s = g) "fig7: KS %s at seed 42, golden %s" s g
        | None -> fail "no golden value; observed: fig7_ks@42 %s" s
      end;
      ks_max := Float.max !ks_max ks;
      merr := Float.max !merr me;
      verr := Float.max !verr ve)
    st.designs;
  (* The paper's speed claim: one Fig. 7 analysis against a flattened
     Monte Carlo at 10,000 iterations (scaled from the 1000 run). *)
  let speedup = mc_s.(0) *. 10.0 /. (median_ms 0 /. 1000.0) in
  Printf.printf
    "hier-soc: %d rounds; Fig. 7 speedup vs 10k-iteration MC %.0fx\n"
    (Array.length ops.untraced.(0) + Array.length ops.traced.(0))
    speedup;
  finish ~trace ~setup:su ~ops
    ~layer:
      [
        ("model_io.read_mb_per_s", st.read_mb_per_s);
        ("mc.flat_iters_per_s", float_of_int (mc_iterations * n) /. sum mc_s);
        ("hier.speedup_vs_mc", speedup);
        ("accuracy.mean_err_pct", 100.0 *. !merr);
        ("accuracy.sigma_err_pct", 100.0 *. !verr);
        ("accuracy.ks", !ks_max);
      ]
