(* Test entry point: one alcotest suite per library plus integration tests
   that exercise the paper's experiments end-to-end at reduced scale. *)

let () =
  Alcotest.run "hier_ssta"
    (List.concat
       [
         Test_gauss.suites;
         Test_linalg.suites;
         Test_canonical.suites;
         Test_variation.suites;
         Test_cell.suites;
         Test_circuit.suites;
         Test_bench_format.suites;
         Test_timing.suites;
         Test_mc.suites;
         Test_model.suites;
         Test_hier.suites;
         Test_hier_flow.suites;
         Test_hier_slab.suites;
         Test_diagnostics.suites;
         Test_obs.suites;
         Test_extensions.suites;
         Test_path_report.suites;
         Test_property.suites;
         Test_kernels.suites;
         Test_batch.suites;
         Test_serve.suites;
         Test_crit_screen.suites;
         Test_determinism.suites;
         Test_par.suites;
         Test_robust.suites;
         Test_frontend.suites;
         Test_integration.suites;
       ])
