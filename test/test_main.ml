let () =
  Alcotest.run "sharing-is-caring"
    [
      Suite_prelude.suite;
      Suite_instance.suite;
      Suite_window.suite;
      Suite_algorithm.suite;
      Suite_binpack.suite;
      Suite_exact.suite;
      Suite_sas.suite;
      Suite_baselines.suite;
      Suite_solver.suite;
      Suite_workload.suite;
      Suite_specs.suite;
      Suite_schedule.suite;
      Suite_assign.suite;
      Suite_online.suite;
      Suite_corpus.suite;
      Suite_scale.suite;
      Suite_engine.suite;
      Suite_obs.suite;
      Suite_robust.suite;
      Suite_serve.suite;
      Suite_lint.suite;
      Suite_analysis.suite;
    ]
