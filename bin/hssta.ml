(* hssta - hierarchical statistical static timing analysis CLI.

   Subcommands:
     list                  list the bundled benchmark circuits
     sta <circuit>         deterministic + statistical timing of one circuit
     extract <circuit>     extract a statistical timing model (Table I row)
     criticality <circuit> edge-criticality histogram (Fig. 6)
     hier [<circuit>]      the 2x2 hierarchical experiment (Fig. 7)
     batch <circuit>       evaluate a batch of scenarios over one design
*)

module H = Hier_ssta
module Form = Ssta_canonical.Form
module Build = Ssta_timing.Build
module N = Ssta_circuit.Netlist
module Stats = Ssta_gauss.Stats
open Cmdliner

let setup_logs =
  let init style_renderer level =
    Fmt_tty.setup_std_outputs ?style_renderer ();
    Logs.set_level level;
    Logs.set_reporter (Logs_fmt.reporter ())
  in
  Term.(const init $ Fmt_cli.style_renderer () $ Logs_cli.level ())

(* Worker-domain count for the parallel MC/extraction engines.  The flag
   overrides the PAR_DOMAINS environment variable, which overrides the CPU
   count; every engine is bit-deterministic across this setting, so it only
   trades wall clock. *)
let setup_domains =
  let doc =
    "Worker domains for the parallel Monte Carlo and extraction engines \
     (default: $(b,PAR_DOMAINS) or the CPU count; 1 = exact sequential \
     path).  Results are bit-identical for every value."
  in
  let arg =
    Arg.(value & opt (some int) None & info [ "j"; "domains" ] ~docv:"N" ~doc)
  in
  let apply = function None -> () | Some n -> Ssta_par.Par.set_domains n in
  Term.(const apply $ arg)

(* Numerical robustness policy for the graceful-degradation layer.  The
   flag overrides the ROBUST_POLICY environment variable (default:
   repair).  Under strict, any detected numerical degeneracy raises a
   structured error naming the fault site (exit code 3); under repair the
   documented repair is applied and counted; warn additionally logs each
   repair to stderr (rate-limited). *)
let setup_robust =
  let doc =
    "Numerical robustness policy: $(b,strict) turns every detected \
     degeneracy (non-finite values, indefinite covariances, degenerate \
     max operands) into a structured error naming the fault site; \
     $(b,repair) applies the documented numerical repair and counts it; \
     $(b,warn) repairs, counts and logs.  Overrides $(b,ROBUST_POLICY); \
     default repair."
  in
  let arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "robust" ] ~docv:"POLICY" ~doc)
  in
  let apply = function
    | None -> ()
    | Some s -> (
        match Ssta_robust.Robust.policy_of_string s with
        | Ok p -> Ssta_robust.Robust.set_policy p
        | Error m ->
            Printf.eprintf "hssta: --robust: %s\n%!" m;
            exit 124)
  in
  Term.(const apply $ arg)

(* Observability: [--trace FILE] streams JSONL span/counter events (same as
   the OBS_TRACE environment variable); [--obs-summary] prints the
   aggregated per-phase table to stderr when the command finishes. *)
let setup_obs =
  let trace_arg =
    let doc =
      "Enable instrumentation and stream JSONL trace events to $(docv) \
       (equivalent to setting $(b,OBS_TRACE))."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let summary_arg =
    let doc =
      "Enable instrumentation and print the aggregated span/counter summary \
       to stderr on exit."
    in
    Arg.(value & flag & info [ "obs-summary" ] ~doc)
  in
  let apply trace summary =
    (match trace with
    | None -> ()
    | Some path ->
        Ssta_obs.Obs.trace_to_file path;
        Ssta_obs.Obs.enable ());
    if summary then begin
      Ssta_obs.Obs.enable ();
      at_exit (fun () ->
          Ssta_obs.Obs.pp Format.err_formatter ();
          Format.pp_print_flush Format.err_formatter ())
    end
  in
  Term.(const apply $ trace_arg $ summary_arg)

let circuit_arg =
  let doc = "Benchmark circuit name (see `hssta list`)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"CIRCUIT" ~doc)

let delta_arg =
  let doc = "Criticality threshold for edge removal (paper: 0.05)." in
  Arg.(value & opt float 0.05 & info [ "delta" ] ~docv:"DELTA" ~doc)

let iters_arg =
  let doc = "Monte Carlo iterations (paper: 10000)." in
  Arg.(value & opt int 2000 & info [ "mc-iterations"; "n" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Random seed for Monte Carlo runs." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

(* The setup shared by the analysis commands, applied in this order. *)
let setup =
  Term.(
    const (fun () () () () -> ())
    $ setup_logs $ setup_domains $ setup_obs $ setup_robust)

type design = { name : string; nl : N.t; build : Build.t }

(* A circuit argument (a bundled name or a .bench path), resolved and
   characterized when the command forces it - after every flag has been
   checked.  A bad circuit prints the resolver's message and exits 1. *)
let characterized circuit =
  let resolve name =
    lazy
      (match Ssta_circuit.Iscas.resolve name with
      | Ok nl -> { name; nl; build = Build.characterize nl }
      | Error (Ssta_circuit.Iscas.Bad_bench m | Ssta_circuit.Iscas.Unknown m) ->
          prerr_endline m;
          exit 1)
  in
  Term.(const resolve $ circuit)

(* ------------------------------------------------------------------ *)

let list_cmd =
  let run () =
    Array.iter
      (fun name ->
        let nl = Ssta_circuit.Iscas.build name in
        Format.printf "%a@." N.pp_stats nl)
      Ssta_circuit.Iscas.names
  in
  Cmd.v (Cmd.info "list" ~doc:"List the bundled benchmark circuits")
    Term.(const run $ const ())

let sta_cmd =
  let run () design =
    let { name; build = b; _ } = Lazy.force design in
    let g = b.Build.graph in
    let nominal =
      Ssta_timing.Sta.design_delay g ~weights:(Build.nominal_weights b)
    in
    match H.Propagate.circuit_delay g ~forms:b.Build.forms with
    | None -> prerr_endline "no output reachable"; exit 1
    | Some f ->
        Printf.printf "circuit:          %s\n" name;
        Printf.printf "nominal delay:    %10.1f ps (corner STA)\n" nominal;
        Printf.printf "SSTA delay:       %10.1f ps mean, %.1f ps sigma\n"
          f.Form.mean (Form.std f);
        List.iter
          (fun p ->
            Printf.printf "  yield %4.1f%% at %10.1f ps\n" (100.0 *. p)
              (H.Yield.clock_for_yield f ~yield:p))
          [ 0.5; 0.9; 0.99; 0.999 ]
  in
  Cmd.v
    (Cmd.info "sta"
       ~doc:"Deterministic and statistical timing of one circuit")
    Term.(const run $ setup $ characterized circuit_arg)

let extract_cmd =
  let run () design delta iters seed =
    let { build = b; _ } = Lazy.force design in
    let model = H.Extract.extract ~delta b in
    Format.printf "%a@." H.Timing_model.pp_stats model;
    if iters > 0 then begin
      let io = H.Timing_model.io_delays model in
      let mc =
        Ssta_mc.Allpairs_mc.run ~iterations:iters ~seed
          (Ssta_mc.Sampler.ctx_of_build b)
      in
      let a =
        H.Timing_model.io_accuracy
          ~reference:(Ssta_mc.Allpairs_mc.pair_moments mc) io
      in
      Printf.printf
        "accuracy vs MC (%d iterations, %d IO pairs): merr=%.2f%% verr=%.2f%%\n"
        iters a.H.Timing_model.pairs
        (100.0 *. a.H.Timing_model.mean_err)
        (100.0 *. a.H.Timing_model.sigma_err)
    end
  in
  Cmd.v
    (Cmd.info "extract"
       ~doc:"Extract a statistical timing model and validate it against MC")
    Term.(
      const run $ setup $ characterized circuit_arg $ delta_arg $ iters_arg
      $ seed_arg)

let criticality_cmd =
  let run () design delta =
    let { build = b; _ } = Lazy.force design in
    let _, crit =
      H.Extract.extract_with_criticality ~exact:true ~delta b
    in
    let cm = crit.H.Criticality.cm in
    let hist = Stats.histogram ~lo:0.0 ~hi:1.0 ~bins:20 cm in
    let total = Array.fold_left ( + ) 0 hist in
    Array.iteri
      (fun i c ->
        Printf.printf "[%4.2f,%4.2f%c %6d %s\n"
          (float_of_int i /. 20.0)
          (float_of_int (i + 1) /. 20.0)
          (if i = 19 then ']' else ')')
          c
          (String.make (max 0 (c * 60 / max 1 total)) '#'))
      hist
  in
  Cmd.v
    (Cmd.info "criticality"
       ~doc:"Edge-criticality histogram of a circuit (paper Fig. 6)")
    Term.(const run $ setup $ characterized circuit_arg $ delta_arg)

let hier_cmd =
  let circuit =
    let doc = "Module circuit for the 2x2 experiment (must have equally many
               inputs and outputs, e.g. c6288)." in
    Arg.(value & pos 0 string "c6288" & info [] ~docv:"CIRCUIT" ~doc)
  in
  let run () design delta iters seed =
    let { name; build = b; _ } = Lazy.force design in
    let model = H.Extract.extract ~delta b in
    let fp =
      try H.Floorplan.mult_grid ~label:name ~build:b ~model ()
      with Failure m -> prerr_endline m; exit 1
    in
    let dg = H.Design_grid.build fp in
    let rep = H.Hier_analysis.analyze fp dg ~mode:H.Replace.Replaced in
    let glo = H.Hier_analysis.analyze fp dg ~mode:H.Replace.Global_only in
    let d = rep.H.Hier_analysis.delay in
    Printf.printf "proposed:     mean=%.1f ps  sigma=%.1f ps  (%.4fs)\n"
      d.Form.mean (Form.std d) rep.H.Hier_analysis.wall_seconds;
    Printf.printf "global-only:  mean=%.1f ps  sigma=%.1f ps\n"
      glo.H.Hier_analysis.delay.Form.mean
      (Form.std glo.H.Hier_analysis.delay);
    if iters > 0 then begin
      let ctx = H.Hier_analysis.flatten fp dg in
      let mc = Ssta_mc.Flat_mc.run ~iterations:iters ~seed ctx in
      Printf.printf "Monte Carlo:  mean=%.1f ps  sigma=%.1f ps  (%.2fs, %d iters)\n"
        (Stats.mean mc.Ssta_mc.Flat_mc.delays)
        (Stats.std mc.Ssta_mc.Flat_mc.delays)
        mc.Ssta_mc.Flat_mc.wall_seconds iters
    end
  in
  Cmd.v
    (Cmd.info "hier"
       ~doc:"Hierarchical SSTA of the paper's 2x2 experiment (Fig. 7)")
    Term.(
      const run $ setup $ characterized circuit $ delta_arg $ iters_arg
      $ seed_arg)

let paths_cmd =
  let k_arg =
    let doc = "Number of paths to report." in
    Arg.(value & opt int 5 & info [ "k"; "paths" ] ~docv:"K" ~doc)
  in
  let run () design k =
    let { build = b; _ } = Lazy.force design in
    H.Path_report.report b.Build.graph ~forms:b.Build.forms ~k
      Format.std_formatter
  in
  Cmd.v
    (Cmd.info "paths"
       ~doc:"Report the statistically most critical paths of a circuit")
    Term.(const run $ setup_logs $ characterized circuit_arg $ k_arg)

let corners_cmd =
  let run () design =
    let { build = b; _ } = Lazy.force design in
    Format.printf "%a@." H.Corners.pp_pessimism (H.Corners.pessimism b)
  in
  Cmd.v
    (Cmd.info "corners"
       ~doc:"Compare corner-based STA margins against the SSTA distribution")
    Term.(const run $ setup_logs $ characterized circuit_arg)

let model_cmd =
  let out_arg =
    let doc = "Output path for the serialized timing model." in
    Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let run () design delta out =
    let { build = b; _ } = Lazy.force design in
    let model = H.Extract.extract ~delta b in
    H.Model_io.save model ~path:out;
    Format.printf "%a@." H.Timing_model.pp_stats model;
    Printf.printf "written to %s\n" out
  in
  Cmd.v
    (Cmd.info "model"
       ~doc:"Extract a timing model and write it to a file (gray-box IP \
             hand-off)")
    Term.(
      const run $ setup $ characterized circuit_arg $ delta_arg $ out_arg)

let model_info_cmd =
  let path_arg =
    let doc = "Serialized timing model file." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let run () path =
    let m = H.Model_io.load ~path in
    Format.printf "%a@." H.Timing_model.pp_stats m;
    let io = H.Timing_model.io_delays m in
    let connected = ref 0 and worst = ref None in
    Array.iter
      (Array.iter (function
        | None -> ()
        | Some f ->
            incr connected;
            (match !worst with
            | Some (w : H.Timing_model.Form.t)
              when w.H.Timing_model.Form.mean >= f.H.Timing_model.Form.mean ->
                ()
            | _ -> worst := Some f)))
      io;
    Printf.printf "connected IO pairs: %d\n" !connected;
    match !worst with
    | Some f ->
        Format.printf "worst IO delay: %a@." Ssta_canonical.Form.pp f
    | None -> print_endline "no connected IO pair"
  in
  Cmd.v
    (Cmd.info "model-info" ~doc:"Inspect a serialized timing model")
    Term.(const run $ setup_logs $ path_arg)

let batch_cmd =
  let module Batch = Ssta_batch.Batch in
  let scenarios_arg =
    let doc =
      "JSON scenario-spec file: an array of objects with optional fields \
       $(b,label), $(b,corner) (nominal|slow|fast|global_slow), $(b,k) \
       (corner sigma multiplier), $(b,delay_scale), $(b,sigma_scale), \
       $(b,grad_x), $(b,grad_y) (linear floorplan gradient over the \
       correlation grid) and $(b,delta).  Without it a built-in grid of \
       $(b,-s) scenarios is used."
    in
    Arg.(
      value & opt (some string) None & info [ "scenarios" ] ~docv:"FILE" ~doc)
  in
  let count_arg =
    let doc = "Number of built-in scenarios when no spec file is given." in
    Arg.(value & opt int 8 & info [ "s"; "count" ] ~docv:"N" ~doc)
  in
  let mode_arg =
    let doc =
      "Evaluation mode: $(b,delay) (design delay and per-output summaries, \
       one shared forward sweep per scenario) or $(b,io) (the full \
       input-output delay matrix per scenario, one forward sweep per \
       input)."
    in
    Arg.(value & opt string "delay" & info [ "mode" ] ~docv:"MODE" ~doc)
  in
  let screen_arg =
    let doc =
      "Also run the criticality screen per scenario (at each scenario's \
       delta) and report how many edges it keeps."
    in
    Arg.(value & flag & info [ "screen" ] ~doc)
  in
  let corner_name = function
    | H.Corners.Nominal -> "nominal"
    | H.Corners.Slow k -> Printf.sprintf "slow@%g" k
    | H.Corners.Fast k -> Printf.sprintf "fast@%g" k
    | H.Corners.Global_slow k -> Printf.sprintf "gslow@%g" k
  in
  let run () design spec s_n mode screen =
    let mode =
      match String.lowercase_ascii (String.trim mode) with
      | "delay" -> Batch.Delay
      | "io" -> Batch.Io
      | other ->
          Printf.eprintf "hssta batch: --mode must be delay or io (got %s)\n%!"
            other;
          exit 124
    in
    let { build = b; _ } = Lazy.force design in
    let scenarios =
      match spec with
      | None -> Batch.default_scenarios (max 1 s_n)
      | Some path -> (
          let text =
            try In_channel.with_open_bin path In_channel.input_all
            with Sys_error m -> prerr_endline m; exit 1
          in
          match Batch.parse_scenarios text with
          | Error m ->
              Printf.eprintf "hssta batch: %s: %s\n%!" path m;
              exit 1
          | Ok [||] ->
              Printf.eprintf "hssta batch: %s: empty scenario list\n%!"
                path;
              exit 1
          | Ok s -> s)
    in
    let base = Batch.prepare b in
    let t0 = Unix.gettimeofday () in
    let results = Batch.run ~mode ~screen base scenarios in
    let dt = Unix.gettimeofday () -. t0 in
    Printf.printf "%-10s %-11s %6s %6s  %10s %9s%s\n" "scenario" "corner"
      "scale" "sigma"
      (match mode with Batch.Delay -> "mean ps" | Batch.Io -> "io pairs")
      (match mode with Batch.Delay -> "sigma ps" | Batch.Io -> "worst ps")
      (if screen then "  kept" else "");
    Array.iter
      (fun (r : Batch.result) ->
        let s = r.Batch.scenario in
        let a, b_ =
          match mode with
          | Batch.Delay -> (
              match r.Batch.delay with
              | Some f ->
                  (Printf.sprintf "%10.1f" f.Form.mean,
                   Printf.sprintf "%9.1f" (Form.std f))
              | None -> ("         -", "        -"))
          | Batch.Io ->
              let pairs = ref 0 and worst = ref neg_infinity in
              Array.iter
                (Array.iter (function
                  | None -> ()
                  | Some (f : Form.t) ->
                      incr pairs;
                      if f.Form.mean > !worst then worst := f.Form.mean))
                r.Batch.io;
              (Printf.sprintf "%10d" !pairs,
               if !pairs = 0 then "        -"
               else Printf.sprintf "%9.1f" !worst)
        in
        Printf.printf "%-10s %-11s %6.3f %6.3f  %s %s%s\n" s.Batch.label
          (corner_name s.Batch.corner)
          s.Batch.delay_scale s.Batch.sigma_scale a b_
          (if screen then Printf.sprintf "  %d" r.Batch.kept_edges else ""))
      results;
    Printf.printf "%d scenario(s) in %.3f s (one shared characterize + \
                   prepare)\n"
      (Array.length results) dt
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:"Evaluate a batch of corner/scale/gradient scenarios over one \
             design, sharing the characterization and the packed base \
             forms across the whole batch (bit-identical to independent \
             runs)")
    Term.(
      const run $ setup $ characterized circuit_arg $ scenarios_arg
      $ count_arg $ mode_arg $ screen_arg)

let inject_cmd =
  let module Inject = Ssta_robust_inject.Inject in
  let module Robust = Ssta_robust.Robust in
  let policy_arg =
    let doc =
      "Policy (or policies) to run the corpus under: $(b,strict), \
       $(b,repair), $(b,warn) or $(b,both) (= strict then repair)."
    in
    Arg.(value & opt string "both" & info [ "policy" ] ~docv:"POLICY" ~doc)
  in
  let out_arg =
    let doc = "Write per-case verdicts as JSONL to $(docv)." in
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc)
  in
  let run () () name policy_s out seed =
    let policies =
      match policy_s with
      | "both" -> [ Robust.Strict; Robust.Repair ]
      | s -> (
          match Robust.policy_of_string s with
          | Ok p -> [ p ]
          | Error m ->
              Printf.eprintf "hssta inject: --policy: %s\n%!" m;
              exit 124)
    in
    let ctx = Inject.make_ctx name in
    let verdicts =
      List.concat_map
        (fun policy -> Inject.run_corpus ctx ~seed ~policy)
        policies
    in
    List.iter
      (fun (v : Inject.verdict) ->
        Printf.printf "%-6s %-7s %-26s %-12s %s  %s\n" v.Inject.circuit
          (Robust.policy_name v.Inject.policy)
          v.Inject.fault
          (Inject.flow_name v.Inject.flow)
          (if v.Inject.ok then "PASS" else "FAIL")
          v.Inject.detail)
      verdicts;
    let pass = List.length (List.filter (fun v -> v.Inject.ok) verdicts) in
    Printf.printf "%d/%d cases pass\n" pass (List.length verdicts);
    (match out with
    | None -> ()
    | Some path ->
        let oc = open_out path in
        output_string oc (Inject.jsonl_of_verdicts verdicts);
        close_out oc;
        Printf.printf "verdicts written to %s\n" path);
    if not (Inject.all_pass verdicts) then exit 3
  in
  Cmd.v
    (Cmd.info "inject"
       ~doc:"Run the deterministic fault-injection corpus against one \
             circuit: every fault class crossed with the extraction and \
             hierarchical flows, under strict and repair policies")
    Term.(
      const run $ setup_logs $ setup_domains $ circuit_arg $ policy_arg
      $ out_arg $ seed_arg)

(* ------------------------------------------------------------------ *)
(* frontend: external designs (structural Verilog + .lib + SDC)        *)

module FDesign = Ssta_frontend.Design
module FVerilog = Ssta_frontend.Verilog
module FLiberty = Ssta_frontend.Liberty
module FSdc = Ssta_frontend.Sdc

let verilog_arg =
  let doc = "Structural Verilog netlist file." in
  Arg.(
    required
    & opt (some file) None
    & info [ "verilog" ] ~docv:"FILE" ~doc)

let liberty_arg =
  let doc = "Liberty-like cell library file." in
  Arg.(
    required
    & opt (some file) None
    & info [ "l"; "liberty" ] ~docv:"FILE" ~doc)

let sdc_opt_arg =
  let doc = "SDC constraints file (optional)." in
  Arg.(value & opt (some file) None & info [ "s"; "sdc" ] ~docv:"FILE" ~doc)

let read_cmd =
  let model_arg =
    let doc =
      "Also extract a statistical timing model of the parsed design and \
       write it to $(docv)."
    in
    Arg.(
      value & opt (some string) None & info [ "model" ] ~docv:"FILE" ~doc)
  in
  let run () v l s model_out =
    let d = FDesign.load_files ~verilog:v ~liberty:l ?sdc:s () in
    let low = FDesign.lower d in
    Format.printf "%a@." N.pp_stats low.FDesign.netlist;
    let sdc = d.FDesign.sdc in
    Printf.printf
      "constraints: %d clock(s), %d input delay(s), %d output delay(s), %d \
       false path(s)\n"
      (List.length sdc.FSdc.clocks)
      (List.length sdc.FSdc.input_delays)
      (List.length sdc.FSdc.output_delays)
      (List.length sdc.FSdc.false_paths);
    match model_out with
    | None -> ()
    | Some path ->
        let b = Build.characterize low.FDesign.netlist in
        let model = H.Extract.extract b in
        H.Model_io.save model ~path;
        Printf.printf "model written to %s\n" path
  in
  Cmd.v
    (Cmd.info "read"
       ~doc:
         "Parse an external design (structural Verilog + Liberty-like \
          library + optional SDC), lower it onto the native netlist \
          representation and print its statistics")
    Term.(
      const run $ setup $ verilog_arg $ liberty_arg $ sdc_opt_arg $ model_arg)

let report_checks_cmd =
  let k_arg =
    let doc = "Statistically critical paths reported per endpoint." in
    Arg.(value & opt int 3 & info [ "k"; "paths" ] ~docv:"K" ~doc)
  in
  let period_arg =
    let doc = "Override the clock period (default: the SDC clock)." in
    Arg.(
      value & opt (some float) None & info [ "period" ] ~docv:"PS" ~doc)
  in
  let run () v l s k period =
    let d = FDesign.load_files ~verilog:v ~liberty:l ?sdc:s () in
    let low = FDesign.lower d in
    let b = Build.characterize low.FDesign.netlist in
    let checks = FDesign.report_checks ~k ?period low ~build:b in
    FDesign.pp_checks low Format.std_formatter checks
  in
  Cmd.v
    (Cmd.info "report-checks"
       ~doc:
         "Per-endpoint statistical slack report of an external design: \
          arrival distribution with SDC input delays folded in and false \
          paths excluded, required time from the SDC clock, slack and the \
          top-k critical paths")
    Term.(
      const run $ setup $ verilog_arg $ liberty_arg $ sdc_opt_arg $ k_arg
      $ period_arg)

let emit_cmd =
  let dir_arg =
    let doc = "Output directory for $(i,name).v / .lib / .sdc." in
    Arg.(
      required & opt (some string) None & info [ "o"; "out" ] ~docv:"DIR" ~doc)
  in
  let run () () design dir =
    let { nl; build = b; _ } = Lazy.force design in
    let nominal =
      Ssta_timing.Sta.design_delay b.Build.graph
        ~weights:(Build.nominal_weights b)
    in
    let period = Float.round (1.25 *. nominal) in
    let io_delay = Float.round (0.05 *. nominal) in
    let net i = Printf.sprintf "n%d" i in
    let inputs = List.init (N.n_pis nl) net in
    let outputs = Array.to_list (Array.map net nl.N.outputs) in
    let sdc =
      {
        FSdc.clocks = [ { FSdc.clk_name = "clk"; period } ];
        input_delays =
          [ { FSdc.ports = inputs; delay = io_delay; dclock = Some "clk" } ];
        output_delays =
          [ { FSdc.ports = outputs; delay = io_delay; dclock = Some "clk" } ];
        false_paths =
          [
            {
              FSdc.from_ports = [ List.hd inputs ];
              to_ports = [ List.hd outputs ];
            };
          ];
      }
    in
    let d = FDesign.of_netlist ~sdc nl in
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
    let write ext text =
      let path = Filename.concat dir (nl.N.name ^ ext) in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc text);
      Printf.printf "wrote %s\n" path
    in
    write ".v" (FVerilog.to_string d.FDesign.modul);
    write ".lib" (FLiberty.to_string d.FDesign.lib);
    write ".sdc" (FSdc.to_string d.FDesign.sdc)
  in
  Cmd.v
    (Cmd.info "emit"
       ~doc:
         "Export a bundled circuit as an external design trio (structural \
          Verilog, Liberty-like library, SDC) that `hssta read` lowers \
          back bit-identically")
    Term.(
      const run $ setup_logs $ setup_domains $ characterized circuit_arg
      $ dir_arg)

let fuzz_frontend_cmd =
  let module Fuzz = Ssta_robust_inject.Fuzz in
  let circuit_arg =
    let doc = "Bundled circuit the base documents are rendered from." in
    Arg.(value & opt string "c432" & info [ "circuit" ] ~docv:"NAME" ~doc)
  in
  let n_arg =
    let doc =
      "Mutated cases per (format, mutation class, policy) cell; the \
       corpus totals 6x this per format."
    in
    Arg.(value & opt int 175 & info [ "n"; "cases" ] ~docv:"N" ~doc)
  in
  let out_arg =
    let doc = "Write per-case verdicts as JSONL to $(docv)." in
    Arg.(
      value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc)
  in
  let run () () circuit n seed out =
    let ctx = Fuzz.make_ctx circuit in
    let verdicts = Fuzz.run_corpus ctx ~seed ~cases_per_class:n in
    print_string (Fuzz.summary verdicts);
    (match out with
    | None -> ()
    | Some path ->
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_string oc (Fuzz.jsonl_of_verdicts verdicts));
        Printf.printf "verdicts written to %s\n" path);
    if not (Fuzz.all_pass verdicts) then exit 3
  in
  Cmd.v
    (Cmd.info "fuzz-frontend"
       ~doc:
         "Run the deterministic mutation-fuzz corpus against the three \
          frontend parsers (byte truncation, token mutation, line shuffle \
          under strict and repair policies); any escaped non-structured \
          exception fails")
    Term.(
      const run $ setup_logs $ setup_domains $ circuit_arg $ n_arg
      $ seed_arg $ out_arg)

(* ------------------------------------------------------------------ *)
(* serve / client: the persistent analysis daemon and its replay client *)

module Serve = Ssta_serve.Serve

let socket_arg =
  let doc =
    "Unix-domain socket path for the JSONL request/response protocol."
  in
  Arg.(
    value & opt string "hssta.sock" & info [ "socket" ] ~docv:"PATH" ~doc)

let serve_cmd =
  let preload_arg =
    let doc =
      "Characterize $(docv) into the model cache before accepting \
       connections (repeatable)."
    in
    Arg.(
      value & opt_all string [] & info [ "preload" ] ~docv:"CIRCUIT" ~doc)
  in
  let cache_dir_arg =
    let doc =
      "Durable state directory: characterized models spill to \
       $(docv)/models (checksummed, atomically renamed into place), \
       committed session changes append to the write-ahead log \
       $(docv)/wal.jsonl before the response is sent, and checkpoints \
       land in $(docv)/checkpoint.  A daemon restarted on the same \
       directory replays checkpoint + WAL and answers the remaining \
       request stream byte-identically to one that never crashed."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ]
          ~env:(Cmd.Env.info "HSSTA_CACHE_DIR")
          ~docv:"DIR" ~doc)
  in
  let max_queue_arg =
    let doc =
      "Backpressure bound: requests beyond the first $(docv) of a \
       pipelined group are shed unprocessed with an \
       ok:false/overloaded:true response carrying a retry_after_ms hint."
    in
    Arg.(value & opt int 256 & info [ "max-queue" ] ~docv:"N" ~doc)
  in
  let checkpoint_arg =
    let doc =
      "Checkpoint the session state and truncate the WAL every $(docv) \
       records (bounds both WAL growth and recovery replay time)."
    in
    Arg.(value & opt int 64 & info [ "wal-checkpoint" ] ~docv:"N" ~doc)
  in
  let run () socket preload cache_dir max_queue checkpoint_every =
    let t = Serve.create ?cache_dir ~max_queue ~checkpoint_every () in
    try Serve.run_daemon ~socket ~preload t
    with Unix.Unix_error (e, fn, arg) ->
      Printf.eprintf "hssta serve: %s: %s(%s)\n%!" (Unix.error_message e) fn
        arg;
      exit 1
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the persistent analysis daemon: load characterized models \
          once, answer design-level quantile/path/what-if queries over a \
          unix-domain socket (JSONL, one request object per line) until a \
          shutdown request, SIGTERM, or SIGINT (all drain in-flight work, \
          flush a checkpoint when --cache-dir is set, and exit 0)")
    Term.(
      const run $ setup $ socket_arg $ preload_arg $ cache_dir_arg
      $ max_queue_arg $ checkpoint_arg)

let client_cmd =
  let replay_arg =
    let doc = "Request-corpus file to replay, one JSON object per line." in
    Arg.(
      required
      & opt (some file) None
      & info [ "replay" ] ~docv:"FILE" ~doc)
  in
  let out_arg =
    let doc = "Write the response stream to $(docv) (default stdout)." in
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc)
  in
  let latency_arg =
    let doc =
      "Write one per-request latency in microseconds per line to $(docv) \
       (sequential mode only)."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "latency-out" ] ~docv:"FILE" ~doc)
  in
  let pipeline_arg =
    let doc =
      "Write the whole corpus before reading responses, exercising the \
       daemon's request batching (per-request latencies are not recorded)."
    in
    Arg.(value & flag & info [ "pipeline" ] ~doc)
  in
  let retry_arg =
    let doc =
      "Resend a request shed with an overloaded response up to $(docv) \
       times, sleeping the daemon's retry_after_ms hint scaled by seeded \
       exponential backoff with jitter between attempts (sequential mode \
       only)."
    in
    Arg.(value & opt int 0 & info [ "retry" ] ~docv:"N" ~doc)
  in
  let retry_seed_arg =
    let doc = "Seed for the retry backoff jitter." in
    Arg.(value & opt int 42 & info [ "retry-seed" ] ~docv:"SEED" ~doc)
  in
  let run () () socket replay_file out latency_out pipeline retry retry_seed
      =
    let requests = Serve.read_corpus replay_file in
    let responses, lat, total, stopped =
      Serve.replay ~pipeline ~retry ~retry_seed ~socket ~requests ()
    in
    (match out with
    | None -> List.iter print_endline responses
    | Some path ->
        let oc = open_out path in
        List.iter
          (fun r ->
            output_string oc r;
            output_char oc '\n')
          responses;
        close_out oc);
    (match latency_out with
    | None -> ()
    | Some path ->
        let oc = open_out path in
        Array.iter
          (fun s -> Printf.fprintf oc "%.1f\n" (s *. 1e6))
          lat;
        close_out oc);
    Printf.eprintf "hssta client: %d requests, %d responses, %.3f s total\n%!"
      (List.length requests) (List.length responses) total;
    (* The responses received so far are written; the missing rest fails. *)
    Option.iter
      (fun i ->
        Ssta_robust.Robust.fail ~subsystem:"serve" ~operation:"replay"
          ~indices:[ i ] "daemon closed the connection mid-replay")
      stopped
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Replay a JSONL request corpus against a running hssta serve \
          daemon, recording the response stream and per-request latencies")
    Term.(
      const run $ setup_logs $ setup_obs $ socket_arg $ replay_arg $ out_arg
      $ latency_arg $ pipeline_arg $ retry_arg $ retry_seed_arg)

let chaos_cmd =
  let corpus_arg =
    let doc =
      "Request corpus (JSONL, must end with a shutdown request) replayed \
       against every crashed-and-restarted daemon and the uninterrupted \
       reference."
    in
    Arg.(
      required & opt (some file) None & info [ "corpus" ] ~docv:"FILE" ~doc)
  in
  let dir_arg =
    let doc = "Scratch directory for per-case daemon state." in
    Arg.(
      value & opt string "_chaos" & info [ "dir" ] ~docv:"DIR" ~doc)
  in
  let out_arg =
    let doc =
      "Write the deterministic verdict JSONL to $(docv) (default stdout)."
    in
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc)
  in
  let checkpoint_arg =
    let doc = "WAL checkpoint cadence passed to every spawned daemon." in
    Arg.(value & opt int 3 & info [ "wal-checkpoint" ] ~docv:"N" ~doc)
  in
  let run () () corpus dir out checkpoint_every =
    let module Chaos = Ssta_robust_inject.Chaos in
    let verdicts =
      Chaos.run ~exe:Sys.executable_name ~corpus_path:corpus ~dir
        ~checkpoint_every ()
    in
    let doc = Chaos.jsonl_of_verdicts verdicts in
    (match out with
    | None -> print_string doc
    | Some path ->
        let oc = open_out path in
        output_string oc doc;
        close_out oc);
    List.iter
      (fun (v : Chaos.verdict) ->
        Printf.eprintf
          "hssta chaos: %-14s answered=%-2d recovered=%b identical=%b \
           recovery=%.1f ms\n\
           %!"
          v.Chaos.label v.Chaos.answered v.Chaos.recovered v.Chaos.identical
          v.Chaos.recovery_ms)
      verdicts;
    let bad =
      List.filter
        (fun (v : Chaos.verdict) ->
          not (v.Chaos.recovered && v.Chaos.identical))
        verdicts
    in
    if bad <> [] then (
      Printf.eprintf "hssta chaos: %d/%d cases FAILED\n%!" (List.length bad)
        (List.length verdicts);
      exit 1)
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Crash/recovery harness: for each seeded crash class \
          (HSSTA_CRASH_AT after the Nth response, mid-WAL-append, after \
          the WAL fsync, mid-model-spill) boot a durable daemon, replay \
          the corpus until the process dies, restart it on the same \
          state directory, replay the unanswered tail, and verify the \
          concatenated response stream is byte-identical to an \
          uninterrupted run; emits one deterministic verdict JSON object \
          per case and exits non-zero if any case fails to recover")
    Term.(
      const run $ setup_logs $ setup_robust $ corpus_arg $ dir_arg $ out_arg
      $ checkpoint_arg)

let () =
  let info =
    Cmd.info "hssta" ~version:"1.0.0"
      ~doc:"Hierarchical statistical static timing analysis (DATE'09 reproduction)"
  in
  let group =
    Cmd.group info
      [
        list_cmd; sta_cmd; extract_cmd; criticality_cmd; hier_cmd;
        batch_cmd; paths_cmd; corners_cmd; model_cmd; model_info_cmd;
        inject_cmd; read_cmd; report_checks_cmd; emit_cmd;
        fuzz_frontend_cmd; serve_cmd; client_cmd; chaos_cmd;
      ]
  in
  (* Cmdliner's usage errors (unknown flags, missing arguments) exit 124
     on every subcommand; capture its multi-line report and condense it
     to one uniform stderr line so scripts see the same shape
     everywhere.  With --robust strict, a detected degeneracy surfaces
     here as a structured error: report the fault site and exit 3
     (distinct from usage errors and from cmdliner's internal-error
     125). *)
  let errbuf = Buffer.create 256 in
  let err = Format.formatter_of_buffer errbuf in
  let code =
    try Cmd.eval ~catch:false ~err group with
    | Ssta_robust.Robust.Error c ->
        Printf.eprintf "hssta: robustness error (%s policy):\n  %s\n%!"
          Ssta_robust.Robust.(policy_name (policy ()))
          (Ssta_robust.Robust.to_string c);
        3
    | e ->
        Printf.eprintf "hssta: internal error: %s\n%!" (Printexc.to_string e);
        125
  in
  Format.pp_print_flush err ();
  let captured = Buffer.contents errbuf in
  if code = Cmd.Exit.cli_error then begin
    let lines =
      String.split_on_char '\n' captured
      |> List.map String.trim
      |> List.filter (fun l -> l <> "")
    in
    let head = match lines with [] -> "hssta: invalid command line" | l :: _ -> l in
    let usage =
      List.find_opt
        (fun l ->
          String.length l >= 6 && String.lowercase_ascii (String.sub l 0 6) = "usage:")
        lines
    in
    Printf.eprintf "%s%s\n%!" head
      (match usage with Some u -> " [" ^ u ^ "]" | None -> "")
  end
  else if captured <> "" then Printf.eprintf "%s%!" captured;
  exit code
