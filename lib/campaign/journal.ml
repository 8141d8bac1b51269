(* The campaign journal: one JSON line per completed job, appended as
   jobs finish and fsync-free by design — a crashed sweep loses at most
   the in-flight jobs, and `--resume` re-runs exactly the missing keys.

   [result_json] is *the* machine-readable encoding of an
   [Engine.result]; `witcher run --json` prints the same object, so a
   single-store run and a campaign cell are byte-compatible. *)

module W = Witcher

type status = Job_ok | Job_failed of string | Job_timeout

type record = {
  spec : Job.spec;
  key : string;
  status : status;
  t_wall : float;
  result : Jsonx.t option;  (* the [result_json] payload when Job_ok *)
  obs : Jsonx.t option;     (* worker pid + metrics snapshot + span buffer *)
}

let status_name = function
  | Job_ok -> "ok"
  | Job_failed _ -> "failed"
  | Job_timeout -> "timeout"

(* ---------- Engine.result -> JSON ---------- *)

let report_json (r : W.Cluster.report) =
  Jsonx.Obj
    [ ("kind", Jsonx.Str (W.Cluster.kind_name r.kind));
      ("rule", Jsonx.Str r.rule);
      ("op", Jsonx.Str r.op_desc);
      ("watch_sid", Jsonx.Str r.watch_sid);
      ("req_sid", Jsonx.Str r.req_sid);
      ("count", Jsonx.Int r.count) ]

let perf_json (c : W.Perf.counts) =
  Jsonx.Obj
    [ ("n_bugs", Jsonx.Int (W.Perf.n_bugs c));
      ("n_occurrences", Jsonx.Int (W.Perf.n_occurrences c));
      ("sites",
       Jsonx.List
         (List.map
            (fun (sid, n) ->
               Jsonx.Obj [ ("sid", Jsonx.Str sid); ("count", Jsonx.Int n) ])
            (W.Perf.bug_sites c))) ]

(* Pruning block, emitted only for non-exhaustive runs: exhaustive
   results stay byte-identical to pre-prune journals (the golden-run test
   and any old tooling reading new journals both rely on that). *)
let prune_json (r : W.Engine.result) =
  match r.prune_policy with
  | Prune.Policy.Exhaustive -> []
  | p ->
    [ ("prune",
       Jsonx.Obj
         [ ("policy", Jsonx.Str (Prune.Policy.name p));
           ("classes", Jsonx.Int r.prune_classes);
           ("reps", Jsonx.Int r.prune_reps);
           ("deferred", Jsonx.Int r.images_deferred);
           ("elided", Jsonx.Int r.images_elided);
           ("expansions", Jsonx.Int r.prune_expansions) ]) ]

(* Batch block, emitted only when fence-batched checking ran: batch-off
   results stay byte-identical to pre-batch journals, and pre-batch
   journals (no "batch" member) keep parsing and aggregating as zeros. *)
let batch_json (r : W.Engine.result) =
  if not r.batch_on then []
  else
    [ ("batch",
       Jsonx.Obj
         [ ("fences", Jsonx.Int r.batch_fences);
           ("images", Jsonx.Int r.batch_images);
           ("inherit_hits", Jsonx.Int r.inherit_hits);
           ("replay_ops_saved", Jsonx.Int r.inherit_ops_saved) ]) ]

(* Streaming block, emitted only when the bounded-memory engine ran:
   batch-engine results stay byte-identical to pre-streaming journals,
   and pre-streaming journals (no "stream" member) keep parsing and
   aggregating as zeros. *)
let stream_json (r : W.Engine.result) =
  if not r.stream_on then []
  else
    [ ("stream",
       Jsonx.Obj
         [ ("window_retirements", Jsonx.Int r.window_retirements);
           ("ckpt_ring_evictions", Jsonx.Int r.ckpt_ring_evictions);
           ("peak_live_words", Jsonx.Int r.peak_live_words) ]) ]

let result_json (r : W.Engine.result) =
  Jsonx.Obj
    ([ ("store", Jsonx.Str r.name);
      ("n_ops", Jsonx.Int r.n_ops);
      ("trace_len", Jsonx.Int r.trace_len);
      ("n_loads", Jsonx.Int r.n_loads);
      ("n_stores", Jsonx.Int r.n_stores);
      ("n_flushes", Jsonx.Int r.n_flushes);
      ("n_fences", Jsonx.Int r.n_fences);
      ("n_ord_conds", Jsonx.Int r.n_ord_conds);
      ("n_atom_conds", Jsonx.Int r.n_atom_conds);
      ("n_guardians", Jsonx.Int r.n_guardians);
      ("images_generated", Jsonx.Int r.images_generated);
      ("images_tested", Jsonx.Int r.images_tested);
      ("n_mismatch", Jsonx.Int r.n_mismatch);
      ("n_clusters", Jsonx.Int r.n_clusters);
      ("c_o", Jsonx.Int r.c_o);
      ("c_a", Jsonx.Int r.c_a);
      ("p_u", Jsonx.Int (W.Perf.n_bugs r.perf.p_u));
      ("p_efl", Jsonx.Int (W.Perf.n_bugs r.perf.p_efl));
      ("p_efe", Jsonx.Int (W.Perf.n_bugs r.perf.p_efe));
      ("p_el", Jsonx.Int (W.Perf.n_bugs r.perf.p_el));
      ("bug_reports", Jsonx.List (List.map report_json r.bug_reports));
      ("perf",
       Jsonx.Obj
         [ ("p_u", perf_json r.perf.p_u);
           ("p_efl", perf_json r.perf.p_efl);
           ("p_efe", perf_json r.perf.p_efe);
           ("p_el", perf_json r.perf.p_el) ]);
      ("replay_ops", Jsonx.Int r.replay_ops);
      ("replay_early_stops", Jsonx.Int r.replay_early_stops);
      ("bytes_materialized", Jsonx.Int r.bytes_materialized);
      ("oracle_runs", Jsonx.Int r.oracle_runs);
      ("oracle_ops_saved", Jsonx.Int r.oracle_ops_saved);
      ("memo_hits", Jsonx.Int r.memo_hits);
      ("ckpt_bytes", Jsonx.Int r.ckpt_bytes);
      ("t_record", Jsonx.Float r.t_record);
      ("t_infer", Jsonx.Float r.t_infer);
      ("t_gen", Jsonx.Float r.t_gen);
      ("t_equiv", Jsonx.Float r.t_equiv);
      (* pre-split readers summed generation + checking as t_check; keep
         emitting it so old tooling can read new journals *)
      ("t_check", Jsonx.Float (r.t_gen +. r.t_equiv)) ]
     @ batch_json r @ prune_json r @ stream_json r)

(* ---------- records ---------- *)

let record ?obs ~spec ~t_wall outcome =
  let status, result =
    match (outcome : Pool.outcome) with
    | Pool.Ok payload -> (Job_ok, Some payload)
    | Pool.Failed msg -> (Job_failed msg, None)
    | Pool.Timeout -> (Job_timeout, None)
  in
  { spec; key = Job.key spec; status; t_wall; result; obs }

let record_to_json r =
  let base =
    [ ("key", Jsonx.Str r.key);
      ("job", Job.to_json r.spec);
      ("status", Jsonx.Str (status_name r.status));
      ("t_wall", Jsonx.Float r.t_wall) ]
  in
  let extra =
    match r.status, r.result with
    | Job_failed msg, _ -> [ ("error", Jsonx.Str msg) ]
    | _, Some payload -> [ ("result", payload) ]
    | _, None -> []
  in
  let obs = match r.obs with Some o -> [ ("obs", o) ] | None -> [] in
  Jsonx.Obj (base @ extra @ obs)

let record_of_json j =
  match Jsonx.member "job" j with
  | None -> Error "journal line missing job"
  | Some job_j ->
    (match Job.of_json job_j with
     | Error e -> Error e
     | Ok spec ->
       let status =
         match Jsonx.str_field j "status" with
         | "ok" -> Job_ok
         | "timeout" -> Job_timeout
         | _ -> Job_failed (Jsonx.str_field ~default:"unknown" j "error")
       in
       Ok
         { spec;
           key = Jsonx.str_field ~default:(Job.key spec) j "key";
           status;
           t_wall = Jsonx.float_field j "t_wall";
           result = Jsonx.member "result" j;
           obs = Jsonx.member "obs" j })

let append oc r =
  output_string oc (Jsonx.to_string (record_to_json r));
  output_char oc '\n';
  flush oc

(* Load a journal, skipping blank and malformed lines (a half-written
   last line from a killed sweep must not poison the resume). *)
let load path =
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in path in
    let records = ref [] in
    (try
       while true do
         let line = input_line ic in
         if String.trim line <> "" then
           match Jsonx.of_string line with
           | Error _ -> ()
           | Ok j ->
             (match record_of_json j with
              | Error _ -> ()
              | Ok r -> records := r :: !records)
       done
     with End_of_file -> ());
    close_in ic;
    List.rev !records
  end

(* ---------- worker observability accessors ---------- *)

let obs_pid r =
  match r.obs with
  | Some o ->
    (match Jsonx.member "pid" o with
     | Some v -> Jsonx.to_int_opt v
     | None -> None)
  | None -> None

let obs_metrics r =
  Option.bind r.obs (fun o ->
      Option.bind (Jsonx.member "metrics" o) (fun m ->
          Result.to_option (Obs.Metrics.of_json m)))

let obs_spans r =
  match Option.bind r.obs (Jsonx.member "spans") with
  | Some s -> Obs.Span.events_of_json s
  | None -> []

(* Keys that already have a terminal journal entry: [Job_ok] and
   [Job_failed] are terminal; a [Job_timeout] is re-run on resume so a
   transiently overloaded machine doesn't freeze a Timeout verdict into
   the campaign forever. *)
let completed_keys records =
  let t = Hashtbl.create 64 in
  List.iter
    (fun r ->
       match r.status with
       | Job_ok | Job_failed _ -> Hashtbl.replace t r.key ()
       | Job_timeout -> ())
    records;
  t
