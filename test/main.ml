let () =
  Alcotest.run "bitspec"
    [ ("width", Test_width.suite);
      ("ir", Test_ir.suite);
      ("ir-equivalence", Test_ir_equiv.suite);
      ("frontend", Test_frontend.suite);
      ("frontend-2", Test_frontend2.suite);
      ("interp", Test_interp.suite);
      ("memimage", Test_memimage.suite);
      ("opt", Test_opt.suite);
      ("analysis", Test_analysis.suite);
      ("squeezer", Test_squeezer.suite);
      ("passes", Test_passes.suite);
      ("isa", Test_isa.suite);
      ("machine", Test_machine.suite);
      ("engines", Test_engines.suite);
      ("transcript", Test_transcript.suite);
      ("paper", Test_paper.suite);
      ("checkpoint", Test_checkpoint.suite);
      ("vulnerability", Test_vulnerability.suite);
      ("backend", Test_backend.suite);
      ("workloads", Test_workloads.suite);
      ("known-answers", Test_known_answers.suite);
      ("resilience", Test_resilience.suite);
      ("faultinject", Test_faultinject.suite);
      ("fuzz", Test_fuzz.suite);
      ("exec", Test_exec.suite);
      ("serve", Test_serve.suite);
      ("obs", Test_obs.suite);
      ("metrics", Test_metrics.suite) ]
