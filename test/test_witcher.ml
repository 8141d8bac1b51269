(* Test runner: every suite registered under one alcotest binary.
   `dune runtest` runs everything; ALCOTEST_QUICK_TESTS=1 skips the
   slow end-to-end detection sweep. *)

let () =
  Alcotest.run "witcher"
    [ ("nvm", Test_nvm.suite);
      ("pmdk", Test_pmdk.suite);
      ("infer+crashgen", Test_infer_gen.suite);
      ("stores", Test_stores.suite);
      ("engine", Test_engine.suite);
      ("campaign", Test_campaign.suite);
      ("obs", Test_obs.suite);
      ("frontend", Test_frontend.suite);
      ("prune", Test_prune.suite);
      ("explain", Test_explain.suite);
      ("stream", Test_stream.suite);
      ("persist", Test_persist.suite) ]
