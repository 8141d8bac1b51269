(* Campaign subsystem tests: planner matrix shape and key stability,
   fault isolation (a failing or livelocking job must not abort its
   siblings), resume semantics, journal round-trips, and aggregate
   totals against independent Engine runs. *)

module W = Witcher
module C = Campaign

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let tmp_dir () =
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "witcher-campaign-%d-%d" (Unix.getpid ()) (Random.bits ()))
  in
  C.Orchestrator.mkdir_p d;
  d

let orch_cfg ?(j = 2) ?(timeout = 120.) ?(resume = false) out_dir =
  { C.Orchestrator.default_cfg with j; timeout; out_dir; resume }

let spec ?(variant = C.Job.Buggy) ?(seed = 1) ?(n_ops = 40)
    ?(max_images = 200) ?(prune = Prune.Policy.Exhaustive)
    ?(expand_budget = W.Engine.default_cfg.expand_budget) store =
  { C.Job.store; variant; seed; n_ops; max_images; prune; expand_budget }

(* ---------- planner ---------- *)

let test_planner_matrix () =
  let cfg =
    { C.Planner.default with
      stores = Some [ "level-hash"; "wort" ];
      seeds = [ 1; 2; 3 ];
      fixed_too = true;
      n_ops = 50 }
  in
  match C.Planner.plan cfg with
  | Error e -> Alcotest.fail e
  | Ok jobs ->
    Alcotest.(check int) "2 stores x 2 variants x 3 seeds" 12
      (List.length jobs);
    (* store-major, then variant, then seed *)
    let first = List.hd jobs in
    Alcotest.(check string) "first store" "level-hash" first.C.Job.store;
    Alcotest.(check int) "first seed" 1 first.C.Job.seed;
    let names = List.map (fun (j : C.Job.spec) -> j.store) jobs in
    Alcotest.(check bool) "level-hash jobs before wort jobs" true
      (List.filteri (fun i _ -> i < 6) names
       |> List.for_all (String.equal "level-hash"));
    (* every (store, variant, seed) cell distinct *)
    let keys = List.map C.Job.key jobs in
    Alcotest.(check int) "keys all distinct" 12
      (List.length (List.sort_uniq compare keys))

let test_planner_rejects_unknown () =
  match
    C.Planner.plan { C.Planner.default with stores = Some [ "nope" ] }
  with
  | Ok _ -> Alcotest.fail "planned an unknown store"
  | Error msg ->
    Alcotest.(check bool) "names the store" true (contains msg "nope")

let test_planner_default_is_whole_registry () =
  match C.Planner.plan C.Planner.default with
  | Error e -> Alcotest.fail e
  | Ok jobs ->
    Alcotest.(check int) "one job per registry entry"
      (List.length Stores.Registry.all)
      (List.length jobs)

let test_keys_deterministic () =
  let s = spec "level-hash" in
  Alcotest.(check string) "same spec, same key" (C.Job.key s) (C.Job.key s);
  Alcotest.(check bool) "seed changes key" true
    (C.Job.key s <> C.Job.key { s with seed = 2 });
  Alcotest.(check bool) "variant changes key" true
    (C.Job.key s <> C.Job.key { s with variant = C.Job.Fixed });
  Alcotest.(check bool) "n_ops changes key" true
    (C.Job.key s <> C.Job.key { s with n_ops = 41 })

(* ---------- journal round-trips ---------- *)

let test_journal_roundtrip () =
  let r =
    C.Journal.record ~spec:(spec "level-hash") ~t_wall:1.5
      (C.Pool.Ok (C.Jsonx.Obj [ ("c_o", C.Jsonx.Int 3) ]))
  in
  let j = C.Journal.record_to_json r in
  (match C.Jsonx.of_string (C.Jsonx.to_string j) with
   | Error e -> Alcotest.fail e
   | Ok parsed ->
     (match C.Journal.record_of_json parsed with
      | Error e -> Alcotest.fail e
      | Ok r' ->
        Alcotest.(check string) "key survives" r.key r'.C.Journal.key;
        Alcotest.(check bool) "status ok" true
          (r'.C.Journal.status = C.Journal.Job_ok);
        Alcotest.(check int) "payload survives" 3
          (match r'.C.Journal.result with
           | Some p -> C.Jsonx.int_field p "c_o"
           | None -> -1)));
  let rf =
    C.Journal.record ~spec:(spec "wort") ~t_wall:0.1
      (C.Pool.Failed "boom")
  in
  match
    C.Journal.record_of_json
      (Result.get_ok
         (C.Jsonx.of_string (C.Jsonx.to_string (C.Journal.record_to_json rf))))
  with
  | Error e -> Alcotest.fail e
  | Ok r' ->
    Alcotest.(check bool) "failure message survives" true
      (r'.C.Journal.status = C.Journal.Job_failed "boom")

let test_journal_skips_garbage () =
  let dir = tmp_dir () in
  let path = Filename.concat dir "journal.jsonl" in
  let good =
    C.Jsonx.to_string
      (C.Journal.record_to_json
         (C.Journal.record ~spec:(spec "wort") ~t_wall:0.2
            (C.Pool.Ok (C.Jsonx.Obj []))))
  in
  let oc = open_out path in
  output_string oc "this is not json\n";
  output_string oc (good ^ "\n");
  output_string oc "{\"key\": \"truncated";  (* half-written final line *)
  close_out oc;
  Alcotest.(check int) "only the valid line loads" 1
    (List.length (C.Journal.load path))

(* Journals written before a layer existed carry none of its counters:
   before the t_gen/t_equiv split (a fused [t_check], no replay or
   materialization counters), before oracle memoization, before pruning
   (no prune fields in the job spec or the result), before fence
   batching (no "batch" block) and before the streaming engine (no
   "stream" block). Each hand-written line, independent of today's
   encoders, must load as an exhaustive job under the unchanged v1 key
   and count as completed for --resume; its counters aggregate, every
   other column reads 0, and the report renders without a streaming
   line. *)
let era_journal_compat ~store ~result ~counters ~t_equiv () =
  let dir = tmp_dir () in
  let path = Filename.concat dir "journal.jsonl" in
  let s = spec store in
  let line =
    {|{"key":"|} ^ C.Job.key s ^ {|","job":{"store":"|} ^ store
    ^ {|","variant":"buggy","seed":1,"n_ops":40,"max_images":200},"status":"ok","t_wall":1.5,"result":|}
    ^ result ^ "}"
  in
  let oc = open_out path in
  output_string oc (line ^ "\n");
  close_out oc;
  let records = C.Journal.load path in
  Alcotest.(check int) "line parses" 1 (List.length records);
  let r = List.hd records in
  Alcotest.(check bool) "absent prune fields mean exhaustive" true
    (r.spec.C.Job.prune = Prune.Policy.Exhaustive);
  Alcotest.(check int) "expand budget defaults"
    W.Engine.default_cfg.expand_budget r.spec.C.Job.expand_budget;
  Alcotest.(check bool) "old key matches today's exhaustive key" true
    (r.key = C.Job.key r.spec);
  Alcotest.(check bool) "old key counts as completed for --resume" true
    (Hashtbl.mem (C.Journal.completed_keys records) (C.Job.key s));
  let agg = C.Aggregate.of_records records in
  Array.iter
    (fun (key, _, _) ->
       Alcotest.(check int) key
         (Option.value ~default:0 (List.assoc_opt key counters))
         (C.Aggregate.get agg.total key))
    C.Aggregate.columns;
  Alcotest.(check (float 0.)) "t_equiv" t_equiv agg.total.t_equiv;
  let txt = C.Aggregate.to_text agg in
  Alcotest.(check bool) "report renders" true (String.length txt > 0);
  Alcotest.(check bool) "no streaming summary" false (contains txt "streaming:")

let era_journals =
  [ ("pre-split",
     era_journal_compat ~store:"level-hash"
       ~result:{|{"store":"level-hash","c_o":2,"c_a":1,"images_tested":99,"n_mismatch":7,"t_check":1.25}|}
       ~counters:[ ("c_o", 2); ("c_a", 1); ("images_tested", 99); ("n_mismatch", 7) ]
       ~t_equiv:0.);
    ("pre-oracle",
     era_journal_compat ~store:"cceh"
       ~result:{|{"store":"cceh","c_o":1,"c_a":0,"images_tested":250,"n_mismatch":4,"replay_ops":1234,"bytes_materialized":4096,"t_gen":0.5,"t_equiv":1.0}|}
       ~counters:[ ("c_o", 1); ("images_tested", 250); ("n_mismatch", 4);
                   ("replay_ops", 1234); ("bytes_materialized", 4096) ]
       ~t_equiv:1.0);
    ("pre-prune",
     era_journal_compat ~store:"level-hash"
       ~result:{|{"store":"level-hash","c_o":3,"c_a":2,"images_tested":120,"n_mismatch":9,"t_gen":0.4,"t_equiv":0.6}|}
       ~counters:[ ("c_o", 3); ("c_a", 2); ("images_tested", 120); ("n_mismatch", 9) ]
       ~t_equiv:0.6);
    ("pre-batch",
     era_journal_compat ~store:"fast-fair"
       ~result:{|{"store":"fast-fair","c_o":2,"c_a":0,"images_tested":150,"n_mismatch":11,"replay_ops":900,"t_gen":0.3,"t_equiv":0.7}|}
       ~counters:[ ("c_o", 2); ("images_tested", 150); ("n_mismatch", 11);
                   ("replay_ops", 900) ]
       ~t_equiv:0.7);
    ("pre-stream",
     era_journal_compat ~store:"cceh"
       ~result:{|{"store":"cceh","c_o":4,"c_a":1,"images_tested":90,"n_mismatch":7,"t_gen":0.2,"t_equiv":0.5}|}
       ~counters:[ ("c_o", 4); ("c_a", 1); ("images_tested", 90); ("n_mismatch", 7) ]
       ~t_equiv:0.5) ]

(* A --fixed-too sweep: report.json's rows keep their variants, and the
   total, summed over both, names none. *)
let test_total_has_no_variant () =
  let records =
    List.map
      (fun (variant, c_o) ->
         C.Journal.record ~spec:(spec ~variant "level-hash") ~t_wall:1.
           (C.Pool.Ok (C.Jsonx.Obj [ ("c_o", C.Jsonx.Int c_o) ])))
      [ (C.Job.Buggy, 3); (C.Job.Fixed, 0) ]
  in
  let report = C.Aggregate.to_json (C.Aggregate.of_records records) in
  let variant row =
    Option.bind (C.Jsonx.member "variant" row) C.Jsonx.to_str_opt
  in
  let rows =
    match C.Jsonx.member "rows" report with
    | Some (C.Jsonx.List rows) -> rows
    | _ -> []
  in
  Alcotest.(check (list (option string))) "rows keep their variants"
    [ Some "buggy"; Some "fixed" ] (List.map variant rows);
  let total = Option.get (C.Jsonx.member "total" report) in
  Alcotest.(check (option string)) "total names no variant" None
    (variant total);
  Alcotest.(check int) "total sums both" 3 (C.Jsonx.int_field total "c_o")

(* Journals written before the forensics event log (no --events, no
   events.jsonl next to them) must still parse, aggregate, and explain:
   `witcher explain` degrades to the journal's bug reports plus an
   explicit "no event data" note rather than failing. *)
let test_preevent_journal_compat () =
  let dir = tmp_dir () in
  let path = Filename.concat dir "journal.jsonl" in
  let s = spec "level-hash" in
  let line =
    {|{"key":"|} ^ C.Job.key s
    ^ {|","job":{"store":"level-hash","variant":"buggy","seed":1,"n_ops":40,"max_images":200},"status":"ok","t_wall":1.5,"result":{"store":"level-hash","c_o":1,"c_a":0,"images_tested":120,"n_mismatch":9,"t_gen":0.4,"t_equiv":0.6,"bug_reports":[{"kind":"C-O","rule":"PO3","op":"insert","watch_sid":"lh:insert.token","req_sid":"lh:insert.key","count":4}]}}|}
  in
  let oc = open_out path in
  output_string oc (line ^ "\n");
  close_out oc;
  (* still a valid journal for aggregate/resume *)
  let records = C.Journal.load path in
  Alcotest.(check int) "pre-event line parses" 1 (List.length records);
  let agg = C.Aggregate.of_records records in
  Alcotest.(check int) "bug counts aggregate" 1 (C.Aggregate.get agg.total "c_o");
  (* explain the bare journal file and the directory holding it: both
     resolve to the degraded journal-only source *)
  List.iter
    (fun input ->
       match C.Explain.load input with
       | Error e -> Alcotest.fail ("explain rejected pre-event input: " ^ e)
       | Ok source ->
         (match source with
          | C.Explain.Journal_only _ -> ()
          | C.Explain.Events _ ->
            Alcotest.fail "journal misread as an event stream");
         let txt = C.Explain.render_text source in
         Alcotest.(check bool) "degradation note present" true
           (contains txt "no event data");
         Alcotest.(check bool) "bug report line present" true
           (contains txt "lh:insert.token"))
    [ path; dir ]

(* ---------- fault isolation (fake stores, custom run_job) ---------- *)

let status_of records store =
  match
    List.find_opt
      (fun (r : C.Journal.record) -> r.spec.C.Job.store = store)
      records
  with
  | Some r -> r.status
  | None -> Alcotest.fail ("no journal record for " ^ store)

let test_failing_job_isolated () =
  let dir = tmp_dir () in
  let jobs = [ spec "alpha"; spec "bad"; spec "gamma" ] in
  let run_job (s : C.Job.spec) =
    if s.store = "bad" then failwith "deliberate fake-store crash";
    C.Jsonx.Obj [ ("c_o", C.Jsonx.Int 1) ]
  in
  let s = C.Orchestrator.run_matrix ~run_job (orch_cfg dir) ~jobs in
  Alcotest.(check int) "all three jobs ran" 3 s.executed;
  Alcotest.(check bool) "bad job failed" true
    (match status_of s.records "bad" with
     | C.Journal.Job_failed msg -> contains msg "deliberate"
     | _ -> false);
  List.iter
    (fun st ->
       Alcotest.(check bool) (st ^ " sibling unaffected") true
         (status_of s.records st = C.Journal.Job_ok))
    [ "alpha"; "gamma" ];
  Alcotest.(check int) "aggregate sees 1 failure" 1 s.aggregate.total.failed;
  Alcotest.(check int) "aggregate sees 2 ok" 2 s.aggregate.total.ok

let test_livelocked_job_killed () =
  let dir = tmp_dir () in
  let jobs = [ spec "alpha"; spec "hang"; spec "gamma" ] in
  let run_job (s : C.Job.spec) =
    if s.store = "hang" then
      (* livelock: the pool must SIGKILL this worker at the deadline *)
      while true do
        ignore (Unix.select [] [] [] 0.1)
      done;
    C.Jsonx.Obj []
  in
  let s =
    C.Orchestrator.run_matrix ~run_job (orch_cfg ~timeout:0.5 dir) ~jobs
  in
  Alcotest.(check bool) "hang timed out" true
    (status_of s.records "hang" = C.Journal.Job_timeout);
  Alcotest.(check int) "siblings completed" 2 s.aggregate.total.ok;
  Alcotest.(check int) "aggregate sees the timeout" 1
    s.aggregate.total.timeout

(* ---------- resume ---------- *)

let test_resume_skips_journaled () =
  let dir = tmp_dir () in
  let jobs = [ spec "a"; spec "b"; spec "c"; spec "d" ] in
  let run_job (_ : C.Job.spec) = C.Jsonx.Obj [] in
  let s1 = C.Orchestrator.run_matrix ~run_job (orch_cfg dir) ~jobs in
  Alcotest.(check int) "first sweep runs everything" 4 s1.executed;
  let s2 =
    C.Orchestrator.run_matrix ~run_job (orch_cfg ~resume:true dir) ~jobs
  in
  Alcotest.(check int) "resume executes nothing" 0 s2.executed;
  Alcotest.(check int) "resume skips everything" 4 s2.skipped;
  Alcotest.(check int) "aggregate still covers the matrix" 4
    s2.aggregate.total.jobs;
  (* growing the matrix re-runs only the new cell *)
  let s3 =
    C.Orchestrator.run_matrix ~run_job (orch_cfg ~resume:true dir)
      ~jobs:(jobs @ [ spec "e" ])
  in
  Alcotest.(check int) "only the new job runs" 1 s3.executed;
  Alcotest.(check int) "old jobs skipped" 4 s3.skipped

let test_resume_retries_timeouts () =
  let dir = tmp_dir () in
  let jobs = [ spec "flaky" ] in
  let hang = ref true in
  let run_job (_ : C.Job.spec) =
    if !hang then
      while true do
        ignore (Unix.select [] [] [] 0.1)
      done;
    C.Jsonx.Obj []
  in
  let s1 =
    C.Orchestrator.run_matrix ~run_job (orch_cfg ~timeout:0.5 dir) ~jobs
  in
  Alcotest.(check int) "timed out" 1 s1.aggregate.total.timeout;
  hang := false;
  let s2 =
    C.Orchestrator.run_matrix ~run_job
      (orch_cfg ~timeout:30. ~resume:true dir)
      ~jobs
  in
  Alcotest.(check int) "timeout retried on resume" 1 s2.executed;
  Alcotest.(check int) "retry succeeded and replaced the verdict" 1
    s2.aggregate.total.ok

(* ---------- real engine: parallel totals = sequential truth ---------- *)

let engine_cfg (s : C.Job.spec) =
  { W.Engine.default_cfg with
    workload = { W.Workload.default with n_ops = s.n_ops; seed = s.seed };
    crash = { W.Crash_gen.default_cfg with max_images = s.max_images };
    prune = s.prune; expand_budget = s.expand_budget }

let test_mini_campaign_totals () =
  let dir = tmp_dir () in
  let stores = [ "level-hash"; "wort"; "cceh" ] in
  let jobs = List.map (fun st -> spec st) stores in
  let s = C.Orchestrator.run_matrix (orch_cfg ~j:3 dir) ~jobs in
  Alcotest.(check int) "all ok" 3 s.aggregate.total.ok;
  (* the forked workers must report exactly what in-process runs report *)
  let expect =
    List.map
      (fun st ->
         let e = Option.get (Stores.Registry.find st) in
         W.Engine.run ~cfg:(engine_cfg (spec st)) (e.buggy ()))
      stores
  in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 expect in
  Alcotest.(check int) "C-O total" (sum (fun r -> r.W.Engine.c_o))
    (C.Aggregate.get s.aggregate.total "c_o");
  Alcotest.(check int) "C-A total" (sum (fun r -> r.W.Engine.c_a))
    (C.Aggregate.get s.aggregate.total "c_a");
  Alcotest.(check int) "images tested total"
    (sum (fun r -> r.W.Engine.images_tested))
    (C.Aggregate.get s.aggregate.total "images_tested");
  Alcotest.(check int) "mismatch total"
    (sum (fun r -> r.W.Engine.n_mismatch))
    (C.Aggregate.get s.aggregate.total "n_mismatch");
  (* reports got written *)
  Alcotest.(check bool) "report.txt exists" true
    (Sys.file_exists s.report_txt_path);
  Alcotest.(check bool) "report.json parses" true
    (match
       C.Jsonx.of_string
         (In_channel.with_open_text s.report_json_path In_channel.input_all)
     with
     | Ok _ -> true
     | Error _ -> false)

(* A job's journaled result depends only on the job: representative
   jobs of one store at neighbouring seeds share pruning classes, and the
   two workers run them in whatever order the pool schedules, yet every
   journal line must equal an in-process run of that job alone (apart
   from the t_* timings). *)
let test_representative_jobs_independent () =
  let dir = tmp_dir () in
  let jobs =
    List.concat_map
      (fun st ->
         List.map
           (fun seed ->
              spec ~seed ~n_ops:60 ~max_images:400
                ~prune:Prune.Policy.Representative st)
           [ 1; 2; 3 ])
      [ "level-hash"; "cceh" ]
  in
  let s = C.Orchestrator.run_matrix (orch_cfg ~j:2 dir) ~jobs in
  Alcotest.(check int) "all ok" 6 s.aggregate.total.ok;
  let rec untimed = function
    | C.Jsonx.Obj kvs ->
      C.Jsonx.Obj
        (List.filter_map
           (fun (k, v) ->
              if String.starts_with ~prefix:"t_" k then None
              else Some (k, untimed v))
           kvs)
    | C.Jsonx.List l -> C.Jsonx.List (List.map untimed l)
    | j -> j
  in
  List.iter
    (fun (r : C.Journal.record) ->
       let e = Option.get (Stores.Registry.find r.spec.store) in
       let alone =
         C.Journal.result_json
           (W.Engine.run ~cfg:(engine_cfg r.spec) (e.buggy ()))
       in
       Alcotest.(check string)
         (C.Job.describe r.spec ^ " = the job run alone")
         (C.Jsonx.to_string (untimed alone))
         (C.Jsonx.to_string (untimed (Option.get r.result))))
    s.records

(* ---------- jsonx ---------- *)

let test_jsonx_roundtrip () =
  let v =
    C.Jsonx.Obj
      [ ("a", C.Jsonx.Int (-3));
        ("b", C.Jsonx.Str "quote\" backslash\\ newline\n tab\t");
        ("c", C.Jsonx.List [ C.Jsonx.Bool true; C.Jsonx.Null;
                             C.Jsonx.Float 1.25 ]);
        ("d", C.Jsonx.Obj [ ("nested", C.Jsonx.Str "ok") ]) ]
  in
  match C.Jsonx.of_string (C.Jsonx.to_string v) with
  | Error e -> Alcotest.fail e
  | Ok v' ->
    Alcotest.(check string) "roundtrip" (C.Jsonx.to_string v)
      (C.Jsonx.to_string v');
    Alcotest.(check int) "accessor" (-3) (C.Jsonx.int_field v' "a")

let test_jsonx_rejects_garbage () =
  List.iter
    (fun s ->
       match C.Jsonx.of_string s with
       | Ok _ -> Alcotest.fail ("accepted garbage: " ^ s)
       | Error _ -> ())
    [ "{"; "[1,"; "\"unterminated"; "{\"a\" 1}"; "nul"; "1 2" ]

let suite =
  [ Alcotest.test_case "planner matrix shape" `Quick test_planner_matrix;
    Alcotest.test_case "planner rejects unknown stores" `Quick
      test_planner_rejects_unknown;
    Alcotest.test_case "planner defaults to whole registry" `Quick
      test_planner_default_is_whole_registry;
    Alcotest.test_case "job keys deterministic" `Quick test_keys_deterministic;
    Alcotest.test_case "journal record roundtrip" `Quick test_journal_roundtrip;
    Alcotest.test_case "journal tolerates torn lines" `Quick
      test_journal_skips_garbage ]
  @ List.map
      (fun (era, test) ->
         Alcotest.test_case (era ^ " journal still aggregates") `Quick test)
      era_journals
  @ [ Alcotest.test_case "pre-event journal still explains" `Quick
        test_preevent_journal_compat;
      Alcotest.test_case "fixed-too total names no variant" `Quick
        test_total_has_no_variant;
      Alcotest.test_case "failing job isolated from siblings" `Quick
        test_failing_job_isolated;
      Alcotest.test_case "livelocked job killed at deadline" `Quick
        test_livelocked_job_killed;
      Alcotest.test_case "resume skips journaled jobs" `Quick
        test_resume_skips_journaled;
      Alcotest.test_case "resume retries timeouts" `Quick
        test_resume_retries_timeouts;
      Alcotest.test_case "representative jobs = jobs run alone" `Slow
        test_representative_jobs_independent;
      Alcotest.test_case "mini-campaign totals = independent runs" `Slow
        test_mini_campaign_totals;
      Alcotest.test_case "jsonx roundtrip" `Quick test_jsonx_roundtrip;
      Alcotest.test_case "jsonx rejects garbage" `Quick test_jsonx_rejects_garbage ]
