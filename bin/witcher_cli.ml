(* The witcher command-line tool: run the crash-consistency pipeline on
   any registered store, sweep the whole registry as a parallel campaign,
   inspect traces, or list the registry.

     witcher list [--json]
     witcher run -s level-hash [--fixed] [-n 300] [--seed 7] [-v] [--json]
                 [--trace-out t.json] [--ckpt-stride N] [--events ev.jsonl]
                 [--stream] [--traffic ycsb-a] [--window N] [--ckpt-ring R]
     witcher campaign -j 4 [--stores a,b] [--seeds 1,2,3] [--fixed-too]
                      [--out dir] [--resume] [--heartbeat SECS]
                      [--trace-out t.json] [--events ev.jsonl]
     witcher explain out-dir-or-events-file [--bug K] [--json]
     witcher trace -s cceh -n 20 [--head 80]
     witcher perf -s memcached -n 200

   `--trace-out` writes a Chrome trace_event file (open in Perfetto or
   chrome://tracing): per-stage spans for a single run, one track per
   worker pid plus an orchestrator overview track for a campaign. *)

module W = Witcher
module R = Stores.Registry
module C = Campaign

let store_arg =
  let open Cmdliner in
  Arg.(
    required
    & opt (some string) None
    & info [ "s"; "store" ] ~docv:"NAME"
        ~doc:"Store to test (see $(b,witcher list)).")

let ops_arg =
  let open Cmdliner in
  Arg.(value & opt int 200 & info [ "n"; "ops" ] ~docv:"N" ~doc:"Operations in the test case.")

let seed_arg =
  let open Cmdliner in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Workload seed.")

let fixed_arg =
  let open Cmdliner in
  Arg.(value & flag & info [ "fixed" ] ~doc:"Test the repaired variant instead of the as-published one.")

let verbose_arg =
  let open Cmdliner in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print every failing cluster, not just root causes.")

let max_images_arg =
  let open Cmdliner in
  Arg.(value & opt int 4000 & info [ "max-images" ] ~docv:"N" ~doc:"Crash-image test budget.")

let json_arg =
  let open Cmdliner in
  Arg.(value & flag & info [ "json" ] ~doc:"Emit machine-readable JSON instead of text.")

let trace_out_arg =
  let open Cmdliner in
  Arg.(value & opt (some string) None
       & info [ "trace-out" ] ~docv:"FILE"
           ~doc:"Write a Chrome trace_event JSON file (load it in Perfetto \
                 or chrome://tracing).")

let events_arg =
  let open Cmdliner in
  Arg.(value & opt (some string) None
       & info [ "events" ] ~docv:"FILE"
           ~doc:"Record the structured forensics event log to $(docv) \
                 (JSONL); feed it to $(b,witcher explain) for post-hoc bug \
                 forensics.")

let sig_depth_arg =
  let open Cmdliner in
  Arg.(value & opt int W.Engine.default_cfg.sig_depth
       & info [ "sig-depth" ] ~docv:"K"
           ~doc:"Truncate the pruning path signature to the crashing \
                 operation's last $(docv) executed sites (0 = full path, \
                 the default). Coarser signatures merge more images into \
                 each equivalence class; divergence-driven expansion stays \
                 on as the safety net. Only affects non-exhaustive \
                 $(b,--prune) policies.")

let ckpt_stride_arg =
  let open Cmdliner in
  Arg.(value & opt int W.Engine.default_cfg.ckpt_stride
       & info [ "ckpt-stride" ] ~docv:"N"
           ~doc:"Snapshot the pool every $(docv) operations during record; \
                 rolled-back oracles resume from the nearest checkpoint \
                 instead of re-running from scratch. 0 disables \
                 checkpointing.")

(* Image-pruning policy (DESIGN §7). A cmdliner conv so bad values fail
   at argument parsing (exit 124-free: usage error, code 2-compatible). *)
let prune_conv =
  let open Cmdliner in
  Arg.conv
    ( (fun s ->
        match Prune.Policy.of_string s with
        | Ok p -> Ok p
        | Error e -> Error (`Msg e)),
      Prune.Policy.pp )

let prune_arg =
  let open Cmdliner in
  Arg.(value & opt (some prune_conv) None
       & info [ "prune" ] ~docv:"POLICY"
           ~doc:"Crash-image pruning policy: $(b,exhaustive) validates \
                 every eligible image, $(b,representative) validates one \
                 representative per execution-path equivalence class \
                 (expanding a class on any divergent verdict), \
                 $(b,sample:N) validates every N-th image (blind \
                 statistical fallback). Default: exhaustive, except \
                 $(b,--stream) runs of 100k+ operations, which default to \
                 sampling (§7.5) scaled to the op count.")

(* Streaming-pipeline knobs (DESIGN \u{00A7}9). Run-only: campaign job
   keys stay a pure function of the matrix cell. *)
let stream_arg =
  let open Cmdliner in
  Arg.(value & flag
       & info [ "stream" ]
           ~doc:"Bound the pipeline's memory: keep only a window of the \
                 trace (see $(b,--window)) and the newest checkpoints (see \
                 $(b,--ckpt-ring)), validating crash images during a second \
                 deterministic execution of the workload. Verdicts are the \
                 same as without $(b,--stream).")

let traffic_conv =
  let open Cmdliner in
  Arg.conv
    ( (fun s ->
        match W.Traffic.of_name s with
        | Some t -> Ok t
        | None ->
          Error
            (`Msg
               (Printf.sprintf "unknown traffic preset %S (expected %s)" s
                  (String.concat ", " W.Traffic.names)))),
      fun ppf t -> Format.pp_print_string ppf t.W.Traffic.name )

let traffic_arg =
  let open Cmdliner in
  Arg.(value & opt (some traffic_conv) None
       & info [ "traffic" ] ~docv:"PRESET"
           ~doc:"Drive the store with YCSB-style generated traffic \
                 (zipfian hot keys, preload phase, bursts) instead of the \
                 coverage-biased workload generator; one of ycsb-a..f or \
                 mixed. $(b,-n) and $(b,--seed) still set the op count and \
                 seed.")

let window_arg =
  let open Cmdliner in
  Arg.(value & opt int W.Engine.default_cfg.stream_window
       & info [ "window" ] ~docv:"SEGS"
           ~doc:"Streaming live-window size, in trace segments (each 2^14 \
                 events); segments older than the window are recycled \
                 unless pinned by a dirty store or a spanning condition.")

let ckpt_ring_arg =
  let open Cmdliner in
  Arg.(value & opt int W.Engine.default_cfg.ckpt_ring
       & info [ "ckpt-ring" ] ~docv:"R"
           ~doc:"Streaming checkpoint-ring capacity: only the newest \
                 $(docv) pool snapshots are kept; oracles for older crash \
                 points replay from scratch.")

let expand_budget_arg =
  let open Cmdliner in
  Arg.(value & opt int W.Engine.default_cfg.expand_budget
       & info [ "expand-budget" ] ~docv:"N"
           ~doc:"Spot-check validations per equivalence class beyond the \
                 representative (powers-of-two member indices); a \
                 spot-check verdict diverging from the class prediction \
                 promotes the whole class back into the validation queue.")

(* Everything the campaign says to a human goes through this one sink. *)
let progress_sink = C.Orchestrator.stderr_progress

let lookup name =
  match R.find name with
  | Some e -> e
  | None ->
    Printf.eprintf "unknown store %S; try `witcher list`\n" name;
    exit 2

let engine_cfg ?(ckpt_stride = W.Engine.default_cfg.ckpt_stride)
    ?(prune = W.Engine.default_cfg.prune)
    ?(expand_budget = W.Engine.default_cfg.expand_budget)
    ?(sig_depth = W.Engine.default_cfg.sig_depth) ~ops ~seed
    ~max_images () =
  { W.Engine.default_cfg with
    workload = { W.Workload.default with n_ops = ops; seed };
    crash = { W.Crash_gen.default_cfg with max_images };
    ckpt_stride; prune; expand_budget; sig_depth }

let list_cmd json =
  if json then begin
    let entries =
      List.map
        (fun (e : R.entry) ->
           C.Jsonx.Obj
             [ ("name", C.Jsonx.Str e.name);
               ("group", C.Jsonx.Str (R.group_name e.group));
               ("lib", C.Jsonx.Str (match e.lib with `LL -> "LL" | `TX -> "TX"));
               ("construct", C.Jsonx.Str e.construct);
               ("paper_bug_ids",
                C.Jsonx.List (List.map (fun i -> C.Jsonx.Int i) e.paper_bug_ids)) ])
        R.all
    in
    print_endline (C.Jsonx.to_string (C.Jsonx.List entries))
  end
  else begin
    Printf.printf "%-16s %-13s %-4s %s\n" "name" "group" "lib" "construct";
    List.iter
      (fun (e : R.entry) ->
         Printf.printf "%-16s %-13s %-4s %s\n" e.name (R.group_name e.group)
           (match e.lib with `LL -> "LL" | `TX -> "TX")
           e.construct)
      R.all
  end;
  0

let run_cmd store fixed ops seed max_images ckpt_stride prune expand_budget
    sig_depth stream traffic window ckpt_ring verbose json trace_out events =
  let e = lookup store in
  let instance = if fixed then e.fixed () else e.buggy () in
  (* unset --prune resolves by scale: exhaustive stays the default, but a
     100k+ op streaming run would drown in crash images, so it defaults
     to the paper's \u{00A7}7.5 sampling, thinned proportionally *)
  let prune =
    match prune with
    | Some p -> p
    | None ->
      if stream && ops >= 100_000 then Prune.Policy.Sample (max 1 (ops / 1000))
      else Prune.Policy.Exhaustive
  in
  let cfg =
    engine_cfg ~ckpt_stride ~prune ~expand_budget ~sig_depth ~ops ~seed
      ~max_images ()
  in
  let cfg =
    { cfg with
      W.Engine.traffic =
        Option.map (fun t -> { t with W.Traffic.n_ops = ops; seed }) traffic;
      stream_window = max 1 window;
      ckpt_ring = max 1 ckpt_ring;
      (* keep an unbounded run's checkpoint count bounded at scale: the
         default 32-op stride would materialize thousands of pool
         snapshots on a 100k+ op run without --stream *)
      ckpt_stride =
        (if ckpt_stride = 0 then 0 else max ckpt_stride (ops / 64)) }
  in
  (* the event sink also powers the -v per-bug footer, so verbose runs
     record even without --events (to memory only) *)
  let ev_on = events <> None || verbose in
  if ev_on then Obs.Event.start ?path:events ();
  let r =
    if stream then W.Engine.run_stream ~cfg instance
    else W.Engine.run ~cfg instance
  in
  let ev_items = if ev_on then Obs.Event.stop () else [] in
  (* the run's observability state: [Engine.run] reset both at entry, so
     they cover exactly this pipeline execution *)
  let metrics = Obs.Metrics.snapshot Obs.Metrics.default in
  let spans = Obs.Span.events Obs.Span.default_buf in
  (match trace_out with
   | None -> ()
   | Some path ->
     Obs.Trace_export.write ~path
       [ { Obs.Trace_export.pid = Unix.getpid ();
           label = Printf.sprintf "witcher run %s" store; events = spans } ]);
  if json then begin
    (* a strict superset of the journal's result_json: same fields, plus
       the metrics snapshot and span buffer under "obs" *)
    let obs =
      C.Jsonx.Obj
        [ ("metrics", Obs.Metrics.to_json metrics);
          ("spans", Obs.Span.events_to_json spans) ]
    in
    let j =
      match C.Journal.result_json r with
      | C.Jsonx.Obj kvs -> C.Jsonx.Obj (kvs @ [ ("obs", obs) ])
      | j -> j
    in
    print_endline (C.Jsonx.to_string j)
  end
  else begin
    print_endline (W.Report.result_header ());
    print_endline (W.Report.result_row r);
    (match r.prune_policy with
     | Prune.Policy.Exhaustive -> ()
     | _ -> print_endline (W.Report.prune_line r));
    if r.stream_on then print_endline (W.Report.stream_line r);
    if verbose && r.batch_on then print_endline (W.Report.batch_line r);
    print_newline ();
    if r.bug_reports = [] then
      print_endline "No crash-consistency bugs detected."
    else begin
      Printf.printf "%d correctness root cause(s):\n" (List.length r.bug_reports);
      List.iteri
        (fun i rep ->
           Printf.printf "%2d. %s\n" (i + 1) (Fmt.str "%a" W.Cluster.pp_report rep))
        r.bug_reports
    end;
    if verbose then begin
      (* per-stage timing and work table: where the pipeline wall-clock
         went and what the replay/COW machinery actually did *)
      Printf.printf "\n%s\n" (W.Report.timing_line r);
      print_string (Obs.Metrics.render metrics);
      Printf.printf "\nAll %d clusters:\n" (List.length r.all_clusters);
      List.iter
        (fun rep -> Printf.printf "  %s\n" (Fmt.str "%a" W.Cluster.pp_report rep))
        r.all_clusters;
      (match C.Explain.bug_footer_lines ev_items with
       | [] -> ()
       | lines ->
         Printf.printf "\nBug forensics (see `witcher explain`):\n";
         List.iter (fun l -> Printf.printf "  %s\n" l) lines)
    end;
    print_newline ();
    print_string (W.Report.bug_list r)
  end;
  (* exit-code contract: campaigns and CI gate on this *)
  if r.bug_reports = [] then 0 else 1

let campaign_cmd jobs_n stores seeds fixed_too ops max_images prune
    expand_budget timeout out resume json heartbeat trace_out events =
  (* campaigns have no --stream, so an unset policy is plain exhaustive *)
  let prune = Option.value prune ~default:Prune.Policy.Exhaustive in
  let plan_cfg =
    { C.Planner.stores; seeds; fixed_too; n_ops = ops; max_images; prune;
      expand_budget }
  in
  match C.Planner.plan plan_cfg with
  | Error msg ->
    progress_sink (Printf.sprintf "campaign: %s" msg);
    2
  | Ok jobs ->
    let cfg =
      { C.Orchestrator.j = jobs_n; timeout; out_dir = out; resume;
        progress = progress_sink; heartbeat; trace_out; events }
    in
    progress_sink
      (Printf.sprintf "campaign: %d job(s), -j %d, journal %s"
         (List.length jobs) jobs_n
         (Filename.concat out "journal.jsonl"));
    let s = C.Orchestrator.run_matrix cfg ~jobs in
    progress_sink
      (Printf.sprintf "campaign: executed %d, skipped %d (journaled), %.1fs"
         s.executed s.skipped s.elapsed);
    (match s.trace_path with
     | Some p -> progress_sink (Printf.sprintf "campaign: trace written to %s" p)
     | None -> ());
    if json then
      print_endline
        (C.Jsonx.to_string
           (C.Aggregate.to_json ~elapsed:s.elapsed ~j:jobs_n s.aggregate))
    else
      print_string (C.Aggregate.to_text ~elapsed:s.elapsed ~j:jobs_n s.aggregate);
    if List.exists
         (fun (r : C.Journal.record) ->
            match r.status with
            | C.Journal.Job_failed _ | C.Journal.Job_timeout -> true
            | C.Journal.Job_ok -> false)
         s.records
    then 1
    else 0

(* `witcher explain`: pure post-hoc forensics — no store lookup, no
   re-execution; everything comes from the event stream / journal. *)
let explain_cmd path bug json =
  match C.Explain.load path with
  | Error msg ->
    Printf.eprintf "explain: %s\n" msg;
    2
  | Ok source ->
    let out_of_range =
      match (bug, source) with
      | Some k, C.Explain.Events runs ->
        k < 1 || k > List.length (C.Explain.bugs runs)
      | _ -> false
    in
    if json then
      print_endline (C.Jsonx.to_string (C.Explain.render_json ?bug source))
    else print_string (C.Explain.render_text ?bug source);
    if out_of_range then 2 else 0

let trace_cmd store ops seed head =
  let e = lookup store in
  let module S = (val e.buggy ()) in
  let wl = { W.Workload.default with n_ops = ops; seed } in
  let wl = if S.supports_scan then wl else W.Workload.no_scan wl in
  let r = W.Driver.record (module S) (W.Workload.generate wl) in
  let loads, stores, flushes, fences = Nvm.Trace.stats r.trace in
  Printf.printf "trace: %d events (%d loads, %d stores, %d flushes, %d fences)\n"
    (Nvm.Trace.length r.trace) loads stores flushes fences;
  let n = min head (Nvm.Trace.length r.trace) in
  for i = 0 to n - 1 do
    Format.printf "%a@." Nvm.Trace.pp_event (Nvm.Trace.get r.trace i)
  done;
  0

let perf_cmd store ops seed =
  let e = lookup store in
  let module S = (val e.buggy ()) in
  let wl = { W.Workload.default with n_ops = ops; seed } in
  let wl = if S.supports_scan then wl else W.Workload.no_scan wl in
  let r = W.Driver.record (module S) (W.Workload.generate wl) in
  let perf = W.Perf.detect r.trace in
  List.iter
    (fun (kind, c) ->
       Printf.printf "%s: %d bug site(s), %d occurrence(s)\n" kind
         (W.Perf.n_bugs c) (W.Perf.n_occurrences c);
       List.iter
         (fun (sid, n) -> Printf.printf "  %-48s x%d\n" sid n)
         (W.Perf.bug_sites c))
    [ "P-U (unpersisted)", perf.p_u;
      "P-EFL (extra flush)", perf.p_efl;
      "P-EFE (extra fence)", perf.p_efe;
      "P-EL (extra logging)", perf.p_el ];
  0

open Cmdliner

(* keep cmdliner's 123/124/125 conventions but replace its generic "0 on
   success" with the tool's contract *)
let non_ok_defaults =
  List.filter (fun i -> Cmd.Exit.info_code i <> 0) Cmd.Exit.defaults

let run_exits =
  [ Cmd.Exit.info 0 ~doc:"no correctness root cause was found.";
    Cmd.Exit.info 1 ~doc:"at least one correctness root cause (C-O/C-A) was found.";
    Cmd.Exit.info 2 ~doc:"usage error: unknown store or bad flags." ]
  @ non_ok_defaults

let campaign_exits =
  [ Cmd.Exit.info 0 ~doc:"every job in the matrix completed.";
    Cmd.Exit.info 1 ~doc:"the sweep completed but some job failed or timed out.";
    Cmd.Exit.info 2 ~doc:"planning error: unknown store or empty matrix." ]
  @ non_ok_defaults

let run_man =
  [ `S Manpage.s_exit_status;
    `P "$(b,witcher run) exits 0 when the store shows no correctness \
        root cause, 1 when at least one C-O/C-A root cause is reported \
        (so CI pipelines and campaign scripts can gate on it), and 2 on \
        usage errors such as an unknown store name." ]

let list_t = Term.(const list_cmd $ json_arg)
let run_t =
  Term.(const run_cmd $ store_arg $ fixed_arg $ ops_arg $ seed_arg
        $ max_images_arg $ ckpt_stride_arg $ prune_arg $ expand_budget_arg
        $ sig_depth_arg $ stream_arg $ traffic_arg $ window_arg $ ckpt_ring_arg
        $ verbose_arg $ json_arg $ trace_out_arg $ events_arg)

let campaign_t =
  let j =
    Arg.(value & opt int 1
         & info [ "j"; "jobs" ] ~docv:"N" ~doc:"Worker processes to fork.")
  in
  let stores =
    Arg.(value & opt (some (list string)) None
         & info [ "stores" ] ~docv:"A,B,..."
             ~doc:"Comma-separated store subset (default: whole registry).")
  in
  let seeds =
    Arg.(value & opt (list int) [ 42 ]
         & info [ "seeds" ] ~docv:"S1,S2,..." ~doc:"Workload seeds to sweep.")
  in
  let fixed_too =
    Arg.(value & flag
         & info [ "fixed-too" ]
             ~doc:"Also run every store's repaired variant (Table 5 style).")
  in
  let timeout =
    Arg.(value & opt float 300.
         & info [ "timeout" ] ~docv:"SECS"
             ~doc:"Per-job wall-clock budget; over-budget workers are killed \
                   and journaled as timeouts.")
  in
  let out =
    Arg.(value & opt string "campaign-out"
         & info [ "out" ] ~docv:"DIR"
             ~doc:"Output directory: journal.jsonl, report.txt, report.json.")
  in
  let resume =
    Arg.(value & flag
         & info [ "resume" ]
             ~doc:"Skip jobs whose key already has a terminal journal entry \
                   (timeouts are retried); without this flag the journal is \
                   restarted from scratch.")
  in
  let heartbeat =
    Arg.(value & opt (some float) None
         & info [ "heartbeat" ] ~docv:"SECS"
             ~doc:"Render a live status line every $(docv) seconds: jobs \
                   done/total, each worker's current job and elapsed time, \
                   and an ETA from the sequential-estimate metric.")
  in
  Term.(const campaign_cmd $ j $ stores $ seeds $ fixed_too $ ops_arg
        $ max_images_arg $ prune_arg $ expand_budget_arg $ timeout $ out
        $ resume $ json_arg $ heartbeat $ trace_out_arg $ events_arg)

let explain_t =
  let path =
    Arg.(required
         & pos 0 (some string) None
         & info [] ~docv:"PATH"
             ~doc:"An --events file, a campaign output directory, or a \
                   journal.jsonl (degraded: no event data).")
  in
  let bug =
    Arg.(value & opt (some int) None
         & info [ "bug" ] ~docv:"K" ~doc:"Explain only bug number $(docv) \
                                          (1-based, as listed).")
  in
  Term.(const explain_cmd $ path $ bug $ json_arg)

let trace_t =
  let head =
    Arg.(value & opt int 60 & info [ "head" ] ~docv:"N" ~doc:"Events to print.")
  in
  Term.(const trace_cmd $ store_arg $ ops_arg $ seed_arg $ head)
let perf_t = Term.(const perf_cmd $ store_arg $ ops_arg $ seed_arg)

let cmds =
  [ Cmd.v (Cmd.info "list" ~doc:"List the registered NVM programs.") list_t;
    Cmd.v (Cmd.info "run" ~doc:"Run the full Witcher pipeline on a store."
             ~exits:run_exits ~man:run_man)
      run_t;
    Cmd.v
      (Cmd.info "campaign"
         ~doc:"Run the evaluation matrix (stores x variants x seeds) as a \
               parallel, resumable, fault-isolated sweep."
         ~exits:campaign_exits)
      campaign_t;
    Cmd.v
      (Cmd.info "explain"
         ~doc:"Reconstruct per-bug forensics (crash point, persistence \
               timeline, first divergence, prune provenance) from a \
               recorded event log — no re-execution."
         ~exits:
           ([ Cmd.Exit.info 0 ~doc:"forensics rendered (possibly degraded \
                                    to journal-only data).";
              Cmd.Exit.info 2 ~doc:"input unusable or bug selection out of \
                                    range." ]
            @ non_ok_defaults))
      explain_t;
    Cmd.v (Cmd.info "trace" ~doc:"Record and print an instrumented trace.") trace_t;
    Cmd.v (Cmd.info "perf" ~doc:"Run only the performance-bug detector.") perf_t ]

let () =
  let info =
    Cmd.info "witcher" ~version:"1.0.0"
      ~doc:"Systematic crash-consistency testing for (simulated) NVM key-value stores"
  in
  exit (Cmd.eval' (Cmd.group info cmds))
