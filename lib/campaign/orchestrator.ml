(* Campaign orchestration: plan -> (resume filter) -> fork pool ->
   journal -> aggregate. This is the `witcher campaign` entry point and
   the piece the tests drive directly.

   All human-facing output of a sweep — per-job progress lines, the
   periodic heartbeat, and the CLI's banner/summary lines — flows
   through the single [cfg.progress] sink (one choke point instead of
   raw eprintf at call sites), so tests can capture it and the CLI can
   decide once how to flush it. *)

module W = Witcher

type cfg = {
  j : int;                  (* worker processes *)
  timeout : float;          (* per-job wall-clock budget, seconds *)
  out_dir : string;
  resume : bool;
  progress : string -> unit;  (* the one output choke point *)
  heartbeat : float option; (* render a live status line every N seconds *)
  trace_out : string option;  (* write a Chrome trace here after the sweep *)
  events : string option;   (* merge per-worker event shards here *)
}

let default_cfg =
  { j = 1; timeout = 300.; out_dir = "campaign-out"; resume = false;
    progress = ignore; heartbeat = None; trace_out = None; events = None }

(* The sink `witcher campaign` uses: stderr, flushed per line. *)
let stderr_progress line = Printf.eprintf "%s\n%!" line

type summary = {
  executed : int;           (* jobs actually run this invocation *)
  skipped : int;            (* jobs satisfied by the journal (--resume) *)
  records : Journal.record list;  (* full journal after the run *)
  aggregate : Aggregate.t;
  elapsed : float;
  journal_path : string;
  report_txt_path : string;
  report_json_path : string;
  trace_path : string option;
}

let mkdir_p dir =
  let rec go d =
    if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      (try Unix.mkdir d 0o755
       with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
    end
  in
  go dir

(* What one worker does: look the store up, build the engine config the
   job spec describes, run the pipeline, return the per-job JSON. Runs
   inside the forked child, and reads nothing but the spec, so a job's
   result is the same whatever ran before it or beside it. *)
let default_run_job ?events_dir (spec : Job.spec) =
  match Stores.Registry.find spec.store with
  | None -> failwith ("unknown store " ^ spec.store)
  | Some e ->
    let instance =
      match spec.variant with
      | Job.Buggy -> e.buggy ()
      | Job.Fixed -> e.fixed ()
    in
    let cfg =
      { W.Engine.default_cfg with
        workload = { W.Workload.default with n_ops = spec.n_ops;
                     seed = spec.seed };
        crash = { W.Crash_gen.default_cfg with max_images = spec.max_images };
        prune = spec.prune; expand_budget = spec.expand_budget }
    in
    (* Event shard: one file per job key, written by the forked child.
       Keyed on Job.key so the post-sweep merge is a pure function of
       the matrix, independent of worker scheduling. *)
    (match events_dir with
     | Some d -> Obs.Event.start ~path:(Filename.concat d (Job.key spec ^ ".jsonl")) ()
     | None -> ());
    let result = Journal.result_json (W.Engine.run ~cfg instance) in
    if events_dir <> None then ignore (Obs.Event.stop ());
    result

let progress_line ~done_ ~total (jr : Pool.job_result) =
  let tag =
    match jr.outcome with
    | Pool.Ok _ -> "ok"
    | Pool.Failed _ -> "FAILED"
    | Pool.Timeout -> "TIMEOUT"
  in
  let detail =
    match jr.outcome with Pool.Failed m -> " (" ^ m ^ ")" | _ -> ""
  in
  Printf.sprintf "[%-7s] %d/%d %s %.1fs%s" tag done_ total
    (Job.describe jr.spec) jr.t_wall detail

(* One heartbeat line: sweep progress, what every in-flight worker is
   chewing on (and for how long), and an ETA derived from the
   sequential-estimate metric (mean per-job wall so far, divided across
   the worker slots — the same estimate the final report's speedup line
   uses, which matters on 1-CPU hosts where elapsed != sum of walls). *)
let heartbeat_line ~done_ ~total ~wall_sum ~j ~running =
  let eta =
    if done_ = 0 then ""
    else begin
      let avg = wall_sum /. float_of_int done_ in
      let not_started = total - done_ - List.length running in
      let seq_remaining =
        List.fold_left
          (fun acc (_, elapsed) -> acc +. Float.max 0. (avg -. elapsed))
          (avg *. float_of_int (max 0 not_started))
          running
      in
      Printf.sprintf ", eta ~%.0fs" (seq_remaining /. float_of_int (max 1 j))
    end
  in
  let workers =
    match running with
    | [] -> "idle"
    | l ->
      String.concat "; "
        (List.map
           (fun (spec, elapsed) ->
              Printf.sprintf "%s %.1fs" (Job.describe spec) elapsed)
           (List.sort
              (fun (a, _) (b, _) -> compare (Job.describe a) (Job.describe b))
              l))
  in
  Printf.sprintf "heartbeat: %d/%d done%s | %s" done_ total eta workers

(* One Chrome-trace track per worker pid (job-labelled, coalesced when a
   pid is recycled across jobs), plus an orchestrator track holding one
   span per job so the sweep's scheduling is visible end to end. *)
let trace_tracks ~t_end (records : Journal.record list) =
  let worker_tracks =
    List.filter_map
      (fun (r : Journal.record) ->
         match (Journal.obs_pid r, Journal.obs_spans r) with
         | Some pid, (_ :: _ as events) ->
           Some { Obs.Trace_export.pid; label = Job.describe r.spec; events }
         | _ -> None)
      records
  in
  let orch_events =
    (* journal records carry only per-job wall; anchor each job span so
       it ends when the sweep did minus the jobs journaled after it —
       an approximation only used for the overview track, the per-worker
       stage spans carry the measured timings *)
    let _, evs =
      List.fold_right
        (fun (r : Journal.record) (stop, acc) ->
           let ts = stop -. r.t_wall in
           ( ts,
             { Obs.Span.name = Job.describe r.spec; ts; dur = r.t_wall;
               depth = 0;
               attrs = [ ("status", Journal.status_name r.status) ] }
             :: acc ))
        records (t_end, [])
    in
    evs
  in
  Obs.Trace_export.coalesce
    ({ Obs.Trace_export.pid = Unix.getpid (); label = "orchestrator";
       events = orch_events }
     :: worker_tracks)

(* Run [jobs] under [cfg]. [run_job] defaults to the registry-backed
   engine runner; the tests substitute hostile ones. *)
let run_matrix ?run_job (cfg : cfg) ~jobs =
  mkdir_p cfg.out_dir;
  let journal_path = Filename.concat cfg.out_dir "journal.jsonl" in
  let prior = if cfg.resume then Journal.load journal_path else [] in
  if not cfg.resume && Sys.file_exists journal_path then
    Sys.remove journal_path;
  let done_keys = Journal.completed_keys prior in
  let events_dir =
    match cfg.events with
    | None -> None
    | Some _ ->
      let d = Filename.concat cfg.out_dir "events" in
      mkdir_p d;
      Some d
  in
  let run_job =
    match run_job with
    | Some f -> f
    | None -> default_run_job ?events_dir
  in
  let to_run, skipped =
    List.partition (fun s -> not (Hashtbl.mem done_keys (Job.key s))) jobs
  in
  let oc =
    open_out_gen [ Open_append; Open_creat ] 0o644 journal_path
  in
  let t0 = Unix.gettimeofday () in
  let total = List.length to_run in
  let executed = ref 0 in
  let wall_sum = ref 0. in
  let last_beat = ref t0 in
  let on_tick ~now ~running =
    match cfg.heartbeat with
    | Some period when now -. !last_beat >= period ->
      last_beat := now;
      cfg.progress
        (heartbeat_line ~done_:!executed ~total ~wall_sum:!wall_sum ~j:cfg.j
           ~running)
    | _ -> ()
  in
  Pool.run ~on_tick ~jobs:to_run ~j:cfg.j ~timeout:cfg.timeout ~run_job
    ~on_done:(fun jr ->
        incr executed;
        wall_sum := !wall_sum +. jr.t_wall;
        let record =
          Journal.record ?obs:jr.obs ~spec:jr.spec ~t_wall:jr.t_wall
            jr.outcome
        in
        Journal.append oc record;
        cfg.progress (progress_line ~done_:!executed ~total jr))
    ();
  close_out oc;
  let elapsed = Unix.gettimeofday () -. t0 in
  let records = Journal.load journal_path in
  (* Aggregate only this campaign's matrix (not unrelated journal rows),
     in matrix order; if a key appears twice — a timed-out job re-run on
     resume — the later record wins. *)
  let by_key = Hashtbl.create 64 in
  List.iter
    (fun (r : Journal.record) -> Hashtbl.replace by_key r.key r)
    records;
  let matrix_records =
    List.filter_map (fun s -> Hashtbl.find_opt by_key (Job.key s)) jobs
  in
  let aggregate = Aggregate.of_records matrix_records in
  let report_txt_path = Filename.concat cfg.out_dir "report.txt" in
  let report_json_path = Filename.concat cfg.out_dir "report.json" in
  let txt = Aggregate.to_text ~elapsed ~j:cfg.j aggregate in
  let oc = open_out report_txt_path in
  output_string oc txt;
  close_out oc;
  let oc = open_out report_json_path in
  output_string oc (Jsonx.to_string (Aggregate.to_json ~elapsed ~j:cfg.j aggregate));
  output_char oc '\n';
  close_out oc;
  (* Merge event shards in matrix (jobs-list) order — deterministic for a
     given matrix regardless of which worker ran what when. Shards left
     over from resumed (skipped) jobs merge too, so the merged stream
     covers the whole matrix. *)
  (match cfg.events with
   | None -> ()
   | Some path ->
     mkdir_p (Filename.dirname path);
     let oc = open_out path in
     List.iter
       (fun spec ->
          let shard =
            Filename.concat (Filename.concat cfg.out_dir "events")
              (Job.key spec ^ ".jsonl")
          in
          if Sys.file_exists shard then begin
            let ic = open_in shard in
            (try
               while true do
                 output_string oc (input_line ic);
                 output_char oc '\n'
               done
             with End_of_file -> ());
            close_in ic
          end)
       jobs;
     close_out oc);
  let trace_path =
    match cfg.trace_out with
    | None -> None
    | Some path ->
      mkdir_p (Filename.dirname path);
      Obs.Trace_export.write ~path
        (trace_tracks ~t_end:(Unix.gettimeofday ()) matrix_records);
      Some path
  in
  { executed = !executed;
    skipped = List.length skipped;
    records = matrix_records;
    aggregate;
    elapsed;
    journal_path;
    report_txt_path;
    report_json_path;
    trace_path }
