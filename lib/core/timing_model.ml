module Form = Ssta_canonical.Form
module Form_buf = Ssta_canonical.Form_buf
module Tgraph = Ssta_timing.Tgraph

type stats = {
  original_edges : int;
  original_vertices : int;
  model_edges : int;
  model_vertices : int;
  removed_edges : int;
  exact_evals : int;
  extraction_seconds : float;
}

type t = {
  name : string;
  graph : Tgraph.t;
  forms : Form_buf.t;
  basis : Ssta_variation.Basis.t;
  die : Ssta_variation.Tile.t;
  delta : float;
  output_load : Form.t array;
  stats : stats;
}

let n_inputs t = Array.length t.graph.Tgraph.inputs
let n_outputs t = Array.length t.graph.Tgraph.outputs

let io_delays t =
  Ssta_obs.Obs.with_span "timing_model.io_delays" (fun () ->
      Propagate.io_delays
        ~pool:(Ssta_par.Par.pool (fun () -> Propagate.create_workspace ()))
        t.graph ~forms:t.forms)

let compression t =
  ( float_of_int t.stats.model_edges /. float_of_int t.stats.original_edges,
    float_of_int t.stats.model_vertices /. float_of_int t.stats.original_vertices
  )

type accuracy = { mean_err : float; sigma_err : float; pairs : int }

let io_accuracy ~reference io =
  let mean_err = ref 0.0 and sigma_err = ref 0.0 and pairs = ref 0 in
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j f ->
          match (f, reference i j) with
          | Some f, Some (mm, ms) ->
              incr pairs;
              (* A zero reference moment (e.g. a zero-delay feedthrough
                 pair) would turn the relative error into inf/nan; such
                 pairs carry no timing information, so they are skipped
                 rather than allowed to poison the max. *)
              if mm <> 0.0 then
                mean_err :=
                  Float.max !mean_err (abs_float (f.Form.mean -. mm) /. mm);
              if ms <> 0.0 then
                sigma_err :=
                  Float.max !sigma_err (abs_float (Form.std f -. ms) /. ms)
          | _ -> ())
        row)
    io;
  { mean_err = !mean_err; sigma_err = !sigma_err; pairs = !pairs }

let pp_stats ppf t =
  let pe, pv = compression t in
  Format.fprintf ppf
    "%s: Eo=%d Vo=%d Em=%d Vm=%d pe=%.0f%% pv=%.0f%% (delta=%g, %.2fs)"
    t.name t.stats.original_edges t.stats.original_vertices
    t.stats.model_edges t.stats.model_vertices (100.0 *. pe) (100.0 *. pv)
    t.delta t.stats.extraction_seconds
