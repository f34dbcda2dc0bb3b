module Robust = Ssta_robust.Robust
module Form = Ssta_canonical.Form
module Form_buf = Ssta_canonical.Form_buf
module Json = Ssta_json.Json
module Mat = Ssta_linalg.Mat
module Pca = Ssta_linalg.Pca
module Basis = Ssta_variation.Basis
module Tile = Ssta_variation.Tile
module Rng = Ssta_gauss.Rng
module Build = Ssta_timing.Build
module H = Hier_ssta

type flow = Extraction | Hierarchical

let flow_name = function
  | Extraction -> "extraction"
  | Hierarchical -> "hierarchical"

let faults =
  [|
    "nan_edge_delay";
    "inf_edge_delay";
    "zero_variance_cell";
    "near_singular_cov";
    "rank_deficient_cov";
    "corrupt_model_float";
    "negative_model_eigenvalue";
  |]

let fault_index fault =
  let rec go i =
    if i >= Array.length faults then
      invalid_arg ("Inject: unknown fault class " ^ fault)
    else if faults.(i) = fault then i
    else go (i + 1)
  in
  go 0

let expected_subsystem ~fault flow =
  match fault with
  | "nan_edge_delay" | "inf_edge_delay" | "zero_variance_cell" -> (
      match flow with
      | Extraction -> "extract"
      | Hierarchical -> "hier_analysis")
  | "near_singular_cov" | "negative_model_eigenvalue" -> "linalg.pca"
  | "rank_deficient_cov" -> "variation.basis"
  | "corrupt_model_float" -> "model_io"
  | _ -> invalid_arg ("Inject: unknown fault class " ^ fault)

let expected_counter ~fault =
  match fault with
  | "nan_edge_delay" | "inf_edge_delay" | "corrupt_model_float" ->
      "robust.nan_sanitized"
  | "zero_variance_cell" -> "robust.zero_variance_arcs"
  | "near_singular_cov" | "negative_model_eigenvalue" -> "robust.psd_clips"
  | "rank_deficient_cov" -> "robust.degenerate_tiles"
  | _ -> invalid_arg ("Inject: unknown fault class " ^ fault)

type verdict = {
  circuit : string;
  fault : string;
  flow : flow;
  policy : Robust.policy;
  ok : bool;
  detail : string;
  counters : (string * int) list;
}

type ctx = {
  circuit : string;
  build : Build.t;
  model : H.Timing_model.t;
  clean_extraction : float;
  clean_hier : float;
}

(* ------------------------------------------------------------------ *)
(* Flows                                                               *)
(* ------------------------------------------------------------------ *)

(* End-to-end consumption of a timing model: place it and propagate.  A
   single instance for the extraction flow (the model is the product under
   test), two side-by-side instances for the hierarchical flow (stitching,
   variable replacement and the cross-instance statistical max all run). *)
let analyze_instances model n =
  let die = model.H.Timing_model.die in
  let w = Tile.width die and h = Tile.height die in
  let top =
    Tile.make ~x0:0.0 ~y0:0.0 ~x1:(float_of_int n *. w) ~y1:h
  in
  let inst i =
    {
      H.Floorplan.label = Printf.sprintf "u%d" i;
      build = None;
      model;
      origin = (float_of_int i *. w, 0.0);
    }
  in
  let fp =
    H.Floorplan.create ~die:top
      ~instances:(Array.init n inst)
      ~connections:[||]
  in
  let dg = H.Design_grid.build fp in
  let res = H.Hier_analysis.analyze fp dg ~mode:H.Replace.Replaced in
  res.H.Hier_analysis.delay.Form.mean

let extraction_metric model = analyze_instances model 1
let hier_metric model = analyze_instances model 2

let make_ctx circuit =
  let build = Build.characterize (Ssta_circuit.Iscas.build circuit) in
  let model = H.Extract.extract build in
  {
    circuit;
    build;
    model;
    clean_extraction = extraction_metric model;
    clean_hier = hier_metric model;
  }

(* ------------------------------------------------------------------ *)
(* Fault constructors                                                  *)
(* ------------------------------------------------------------------ *)

(* Pick an arc with positive nominal delay (gate arcs; skips zero-mean
   interconnect edges so the zero-variance classifier's exemption is not
   what we hit). *)
let pick_gate_arc rng forms =
  let cands = ref [] in
  for e = Form_buf.length forms - 1 downto 0 do
    if Form_buf.mean forms e > 0.0 then cands := e :: !cands
  done;
  let cands = Array.of_list !cands in
  cands.(Rng.int rng (Array.length cands))

let poke_mean rng forms v =
  let e = pick_gate_arc rng forms in
  let forms = Form_buf.copy forms in
  Form_buf.set forms e { (Form_buf.get forms e) with Form.mean = v };
  forms

let poke_zero_variance rng forms =
  let e = pick_gate_arc rng forms in
  let forms = Form_buf.copy forms in
  Form_buf.set forms e
    (Form.constant (Form_buf.dims forms) (Form_buf.mean forms e));
  forms

(* A covariance that is not one: a strongly out-of-range off-diagonal pair
   (|rho| = 10 in a unit-diagonal matrix) drives an eigenvalue below -2%
   of the largest - by eigenvalue interlacing the 2x2 principal submatrix
   [[1,10],[10,1]] bounds the minimum eigenvalue by -9.  Detection is in
   Pca.of_covariance. *)
let inject_near_singular rng (basis : Basis.t) =
  let n = Array.length basis.Basis.tiles in
  let i = Rng.int rng n in
  let j = (i + 1 + Rng.int rng (n - 1)) mod n in
  let c = Basis.local_covariance_matrix basis in
  let c' =
    Mat.init n n (fun a b ->
        if (a = i && b = j) || (a = j && b = i) then 10.0 else Mat.get c a b)
  in
  let pca = Pca.of_covariance c' in
  Basis.of_parts ~n_params:basis.Basis.n_params ~corr:basis.Basis.corr
    ~pitch:basis.Basis.pitch ~tiles:basis.Basis.tiles ~pca

(* Coincident tiles: duplicate covariance rows, i.e. an exactly
   rank-deficient grid.  Detection is in Basis.make. *)
let inject_rank_deficient rng (basis : Basis.t) =
  let tiles = Array.copy basis.Basis.tiles in
  let n = Array.length tiles in
  let i = Rng.int rng n in
  let j = (i + 1 + Rng.int rng (n - 1)) mod n in
  tiles.(j) <- tiles.(i);
  Basis.make ~n_params:basis.Basis.n_params ~corr:basis.Basis.corr
    ~pitch:basis.Basis.pitch tiles

(* Serialized-model mutations: rewrite one token of the canonical text
   form.  [mutate_first_line] applies [f] to the first line carrying the
   prefix; model files always have at least one "edge " and one
   "pca-values " line. *)
let mutate_first_line text ~prefix ~f =
  let lines = String.split_on_char '\n' text in
  let hit = ref false in
  let plen = String.length prefix in
  let lines =
    List.map
      (fun l ->
        if
          (not !hit)
          && String.length l >= plen
          && String.sub l 0 plen = prefix
        then begin
          hit := true;
          f l
        end
        else l)
      lines
  in
  if not !hit then
    invalid_arg ("Inject: serialized model has no '" ^ prefix ^ "' line");
  String.concat "\n" lines

let replace_token line ~index ~value =
  let toks = String.split_on_char ' ' line in
  let toks =
    List.mapi (fun i t -> if i = index then value else t) toks
  in
  String.concat " " toks

let replace_last_token line ~value =
  let toks = String.split_on_char ' ' line in
  replace_token line ~index:(List.length toks - 1) ~value

(* "edge <src> <dst> <mean> ..." - token 3 is the arc's nominal delay. *)
let corrupt_model_float text =
  mutate_first_line text ~prefix:"edge " ~f:(fun l ->
      replace_token l ~index:3 ~value:"nan")

(* Last eigenvalue of the serialized spectrum goes negative; decreasing
   order is preserved so the only violated invariant is PSD-ness. *)
let negative_model_eigenvalue text =
  mutate_first_line text ~prefix:"pca-values " ~f:(fun l ->
      replace_last_token l ~value:"-0.5")

(* ------------------------------------------------------------------ *)
(* Cases                                                               *)
(* ------------------------------------------------------------------ *)

(* The whole perturbed flow lives inside the returned thunk, so a Strict
   policy raises from inside the case and a Repair/Warn run yields the
   end-to-end delay metric. *)
let case_thunk ctx ~fault ~flow rng () =
  let b = ctx.build and m = ctx.model in
  match (fault, flow) with
  | "nan_edge_delay", Extraction ->
      extraction_metric
        (H.Extract.extract { b with Build.forms = poke_mean rng b.Build.forms Float.nan })
  | "nan_edge_delay", Hierarchical ->
      hier_metric
        { m with H.Timing_model.forms = poke_mean rng m.H.Timing_model.forms Float.nan }
  | "inf_edge_delay", Extraction ->
      extraction_metric
        (H.Extract.extract
           { b with Build.forms = poke_mean rng b.Build.forms Float.infinity })
  | "inf_edge_delay", Hierarchical ->
      hier_metric
        {
          m with
          H.Timing_model.forms = poke_mean rng m.H.Timing_model.forms Float.infinity;
        }
  | "zero_variance_cell", Extraction ->
      extraction_metric
        (H.Extract.extract
           { b with Build.forms = poke_zero_variance rng b.Build.forms })
  | "zero_variance_cell", Hierarchical ->
      hier_metric
        {
          m with
          H.Timing_model.forms = poke_zero_variance rng m.H.Timing_model.forms;
        }
  | "near_singular_cov", Extraction ->
      extraction_metric
        (H.Extract.extract { b with Build.basis = inject_near_singular rng b.Build.basis })
  | "near_singular_cov", Hierarchical ->
      hier_metric
        {
          m with
          H.Timing_model.basis = inject_near_singular rng m.H.Timing_model.basis;
        }
  | "rank_deficient_cov", Extraction ->
      extraction_metric
        (H.Extract.extract
           { b with Build.basis = inject_rank_deficient rng b.Build.basis })
  | "rank_deficient_cov", Hierarchical ->
      hier_metric
        {
          m with
          H.Timing_model.basis = inject_rank_deficient rng m.H.Timing_model.basis;
        }
  | "corrupt_model_float", Extraction ->
      extraction_metric
        (H.Model_io.of_string (corrupt_model_float (H.Model_io.to_string m)))
  | "corrupt_model_float", Hierarchical ->
      hier_metric
        (H.Model_io.of_string (corrupt_model_float (H.Model_io.to_string m)))
  | "negative_model_eigenvalue", Extraction ->
      extraction_metric
        (H.Model_io.of_string
           (negative_model_eigenvalue (H.Model_io.to_string m)))
  | "negative_model_eigenvalue", Hierarchical ->
      hier_metric
        (H.Model_io.of_string
           (negative_model_eigenvalue (H.Model_io.to_string m)))
  | _ -> invalid_arg ("Inject: unknown fault class " ^ fault)

(* A repaired run may lose (or gain) at most the perturbed arc's
   contribution; a quarter of the clean end-to-end delay bounds every
   fault class in the corpus with wide margin. *)
let delta_bound = 0.25

let run_case ctx ~seed ~fault ~flow ~policy =
  let fi = fault_index fault in
  let index = (2 * fi) + match flow with Extraction -> 0 | Hierarchical -> 1 in
  let rng = Rng.stream ~seed ~index in
  let thunk = case_thunk ctx ~fault ~flow rng in
  Robust.with_policy policy (fun () ->
      Robust.reset ();
      let ok, detail =
        match policy with
        | Robust.Strict -> (
            match thunk () with
            | v ->
                ( false,
                  Printf.sprintf "no structured error raised (delay %.6g)" v )
            | exception Robust.Error c ->
                let want = expected_subsystem ~fault flow in
                if c.Robust.subsystem = want then (true, Robust.to_string c)
                else
                  ( false,
                    Printf.sprintf "error from %s, expected %s: %s"
                      c.Robust.subsystem want (Robust.to_string c) ))
        | Robust.Repair | Robust.Warn -> (
            let clean =
              match flow with
              | Extraction -> ctx.clean_extraction
              | Hierarchical -> ctx.clean_hier
            in
            match thunk () with
            | v ->
                let finite = Robust.is_finite v in
                let delta =
                  abs_float (v -. clean) /. Float.max 1.0 (abs_float clean)
                in
                let counter = expected_counter ~fault in
                let fired = Robust.value (Robust.counter counter) > 0 in
                let ok = finite && delta <= delta_bound && fired in
                ( ok,
                  Printf.sprintf
                    "delay %.6g vs clean %.6g (delta %.2f%%), %s=%d" v clean
                    (100.0 *. delta) counter
                    (Robust.value (Robust.counter counter)) )
            | exception e ->
                (false, "repair run raised: " ^ Printexc.to_string e))
      in
      let counters =
        List.filter (fun (_, v) -> v > 0) (Robust.counters ())
      in
      { circuit = ctx.circuit; fault; flow; policy; ok; detail; counters })

let run_corpus ctx ~seed ~policy =
  List.concat_map
    (fun fault ->
      List.map
        (fun flow -> run_case ctx ~seed ~fault ~flow ~policy)
        [ Extraction; Hierarchical ])
    (Array.to_list faults)

let all_pass vs = List.for_all (fun v -> v.ok) vs

(* ------------------------------------------------------------------ *)
(* JSONL                                                               *)
(* ------------------------------------------------------------------ *)

let jsonl_of_verdicts vs =
  let line (v : verdict) =
    Json.to_string
      (Json.Obj
         [
           ("circuit", Json.Str v.circuit);
           ("fault", Json.Str v.fault);
           ("flow", Json.Str (flow_name v.flow));
           ("policy", Json.Str (Robust.policy_name v.policy));
           ("ok", Json.Bool v.ok);
           ("detail", Json.Str v.detail);
           ( "counters",
             Json.Obj
               (List.map (fun (k, n) -> (k, Json.Num (float_of_int n))) v.counters)
           );
         ])
  in
  String.concat "\n" (List.map line vs) ^ "\n"
