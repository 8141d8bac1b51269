(* Fold a campaign journal into Table 4/5-style reports: one row per
   (store, variant) summed across seeds, plus campaign totals and the
   wall-clock speedup the worker pool bought over a sequential sweep. *)

type row = {
  store : string;
  variant : Job.variant option;  (* None in the total, over both variants *)
  jobs : int;
  ok : int;
  failed : int;
  timeout : int;
  c_o : int;
  c_a : int;
  p_u : int;
  p_efl : int;
  p_efe : int;
  p_el : int;
  images_tested : int;
  n_mismatch : int;
  replay_ops : int;         (* ops re-executed by resumed runs *)
  bytes_materialized : int; (* bytes copied to build crash images *)
  oracle_runs : int;        (* rolled-back oracles actually built *)
  oracle_ops_saved : int;   (* oracle ops elided by laziness/checkpoints *)
  memo_hits : int;          (* verdicts served from the digest memo *)
  ckpt_bytes : int;         (* flat-equivalent checkpoint footprint *)
  batch_fences : int;       (* fence groups opened by batched checking *)
  inherit_hits : int;       (* verdicts inherited from a fence sibling *)
  batch_saved : int;        (* replay ops inherited verdicts skipped *)
  prune_classes : int;      (* path-signature equivalence classes *)
  prune_reps : int;         (* representatives + spot-checks validated *)
  images_elided : int;      (* images never validated thanks to pruning *)
  prune_expansions : int;   (* classes promoted back to full validation *)
  stream_jobs : int;        (* jobs run by the bounded-memory engine *)
  window_retirements : int; (* trace segments released by the window *)
  ckpt_ring_evictions : int;(* checkpoints dropped by the bounded ring *)
  peak_live_words : int;    (* max (not sum) GC live-heap peak, words *)
  t_equiv : float;          (* summed equivalence-checking stage time *)
  wall : float;             (* summed per-job wall-clock *)
}

type t = {
  rows : row list;
  total : row;              (* store = "TOTAL" *)
  sequential_wall : float;  (* sum of every job's wall-clock *)
  metrics : Obs.Metrics.snapshot;
  (* exact merge of every worker's metrics snapshot: [Obs.Metrics.merge]
     is associative and commutative, so this equals what one process
     running the whole matrix would have observed *)
}

let empty_row store variant =
  { store; variant; jobs = 0; ok = 0; failed = 0; timeout = 0; c_o = 0;
    c_a = 0; p_u = 0; p_efl = 0; p_efe = 0; p_el = 0; images_tested = 0;
    n_mismatch = 0; replay_ops = 0; bytes_materialized = 0; oracle_runs = 0;
    oracle_ops_saved = 0; memo_hits = 0; ckpt_bytes = 0; batch_fences = 0;
    inherit_hits = 0; batch_saved = 0; prune_classes = 0;
    prune_reps = 0; images_elided = 0; prune_expansions = 0;
    stream_jobs = 0; window_retirements = 0;
    ckpt_ring_evictions = 0; peak_live_words = 0; t_equiv = 0.; wall = 0. }

let add_record row (r : Journal.record) =
  let ok, failed, timeout, counts =
    match r.status with
    | Journal.Job_ok -> (1, 0, 0, r.result)
    | Journal.Job_failed _ -> (0, 1, 0, None)
    | Journal.Job_timeout -> (0, 0, 1, None)
  in
  let f k = match counts with None -> 0 | Some j -> Jsonx.int_field j k in
  (* nested under "prune" and absent entirely in exhaustive / pre-prune
     journals; the default-0 read keeps old sweeps aggregating *)
  let p k =
    match Option.bind counts (Jsonx.member "prune") with
    | None -> 0
    | Some pj -> Jsonx.int_field pj k
  in
  (* nested under "batch"; absent in batch-off runs and every pre-batch
     journal, which aggregate as zeros *)
  let b k =
    match Option.bind counts (Jsonx.member "batch") with
    | None -> 0
    | Some bj -> Jsonx.int_field bj k
  in
  (* nested under "stream"; absent in batch-engine runs and every
     pre-streaming journal, which aggregate as zeros *)
  let stream_j = Option.bind counts (Jsonx.member "stream") in
  let s k =
    match stream_j with None -> 0 | Some sj -> Jsonx.int_field sj k
  in
  { row with
    jobs = row.jobs + 1;
    ok = row.ok + ok;
    failed = row.failed + failed;
    timeout = row.timeout + timeout;
    c_o = row.c_o + f "c_o";
    c_a = row.c_a + f "c_a";
    p_u = row.p_u + f "p_u";
    p_efl = row.p_efl + f "p_efl";
    p_efe = row.p_efe + f "p_efe";
    p_el = row.p_el + f "p_el";
    images_tested = row.images_tested + f "images_tested";
    n_mismatch = row.n_mismatch + f "n_mismatch";
    (* absent in journals written before the t_gen/t_equiv split; the
       accessors default to 0 so old sweeps still aggregate *)
    replay_ops = row.replay_ops + f "replay_ops";
    bytes_materialized = row.bytes_materialized + f "bytes_materialized";
    (* likewise absent in pre-oracle-memoization journals *)
    oracle_runs = row.oracle_runs + f "oracle_runs";
    oracle_ops_saved = row.oracle_ops_saved + f "oracle_ops_saved";
    memo_hits = row.memo_hits + f "memo_hits";
    ckpt_bytes = row.ckpt_bytes + f "ckpt_bytes";
    batch_fences = row.batch_fences + b "fences";
    inherit_hits = row.inherit_hits + b "inherit_hits";
    batch_saved = row.batch_saved + b "replay_ops_saved";
    prune_classes = row.prune_classes + p "classes";
    prune_reps = row.prune_reps + p "reps";
    images_elided = row.images_elided + p "elided";
    prune_expansions = row.prune_expansions + p "expansions";
    stream_jobs = row.stream_jobs + (if stream_j = None then 0 else 1);
    window_retirements = row.window_retirements + s "window_retirements";
    ckpt_ring_evictions = row.ckpt_ring_evictions + s "ckpt_ring_evictions";
    (* a peak is a high-water mark: campaign-wide it is the max over
       jobs (workers run sequentially per slot), never a sum *)
    peak_live_words = max row.peak_live_words (s "peak_live_words");
    t_equiv =
      (row.t_equiv
       +. match counts with None -> 0. | Some j -> Jsonx.float_field j "t_equiv");
    wall = row.wall +. r.t_wall }

let of_records (records : Journal.record list) =
  (* preserve first-seen (registry/journal) order for the rows *)
  let order = ref [] in
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (r : Journal.record) ->
       let k = (r.spec.Job.store, r.spec.Job.variant) in
       let row =
         match Hashtbl.find_opt tbl k with
         | Some row -> row
         | None ->
           order := k :: !order;
           empty_row r.spec.Job.store (Some r.spec.Job.variant)
       in
       Hashtbl.replace tbl k (add_record row r))
    records;
  let rows = List.rev_map (fun k -> Hashtbl.find tbl k) !order in
  (* every column is a sum or a max over jobs, so the total is one more
     row that every record is added to *)
  let total = List.fold_left add_record (empty_row "TOTAL" None) records in
  let metrics =
    Obs.Metrics.merge_all (List.filter_map Journal.obs_metrics records)
  in
  { rows; total; sequential_wall = total.wall; metrics }

let status_cell row =
  if row.failed = 0 && row.timeout = 0 then "ok"
  else Printf.sprintf "%dF/%dT" row.failed row.timeout

let row_line row =
  Printf.sprintf "%-16s %-6s | %4d %4d %6s | %4d %4d | %4d %5d %5d %4d | %8d %8d | %8d %7.2f | %7d %8d %6d | %5d %8d | %5d %5d %7d %6d | %8.1f | %8.1f"
    row.store
    (Option.fold ~none:"" ~some:Job.variant_name row.variant)
    row.jobs row.ok (status_cell row) row.c_o row.c_a row.p_u row.p_efl
    row.p_efe row.p_el row.images_tested row.n_mismatch row.replay_ops
    (Witcher.Report.mb row.bytes_materialized)
    row.oracle_runs row.oracle_ops_saved row.memo_hits
    row.inherit_hits row.batch_saved
    row.prune_classes row.prune_reps row.images_elided row.prune_expansions
    row.t_equiv row.wall

let header () =
  Printf.sprintf "%-16s %-6s | %4s %4s %6s | %4s %4s | %4s %5s %5s %4s | %8s %8s | %8s %7s | %7s %8s %6s | %5s %8s | %5s %5s %7s %6s | %8s | %8s"
    "store" "var" "jobs" "ok" "status" "C-O" "C-A" "P-U" "P-EFL" "P-EFE"
    "P-EL" "#img-tst" "#mismtch" "#replay" "mat-MB" "#oracle" "#o-saved"
    "#memo" "#inh" "#i-saved" "#cls" "#rep" "#elide" "#expnd" "equiv(s)" "wall(s)"

(* [elapsed] is the campaign's real wall-clock; the speedup line compares
   it against running every job back to back on one core. *)
let to_text ?elapsed ?j t =
  let b = Buffer.create 1024 in
  Buffer.add_string b (header ());
  Buffer.add_char b '\n';
  Buffer.add_string b (String.make (String.length (header ())) '-');
  Buffer.add_char b '\n';
  List.iter
    (fun row -> Buffer.add_string b (row_line row); Buffer.add_char b '\n')
    t.rows;
  Buffer.add_string b (String.make (String.length (header ())) '-');
  Buffer.add_char b '\n';
  Buffer.add_string b (row_line t.total);
  Buffer.add_char b '\n';
  if t.total.stream_jobs > 0 then
    Buffer.add_string b
      (Printf.sprintf
         "streaming: %d job(s); %d window retirement(s); %d checkpoint \
          eviction(s); peak live heap %.1f MB\n"
         t.total.stream_jobs t.total.window_retirements
         t.total.ckpt_ring_evictions
         (Witcher.Report.mb (t.total.peak_live_words * 8)));
  (match elapsed with
   | Some e when e >= 0.01 ->
     Buffer.add_string b
       (Printf.sprintf
          "campaign wall-clock %.1fs%s; sequential estimate %.1fs; speedup %.2fx\n"
          e
          (match j with Some j -> Printf.sprintf " (-j %d)" j | None -> "")
          t.sequential_wall
          (t.sequential_wall /. e))
   | _ -> ());
  if t.metrics <> Obs.Metrics.empty then begin
    Buffer.add_string b "\ncampaign metrics (merged across workers):\n";
    Buffer.add_string b (Obs.Metrics.render t.metrics)
  end;
  Buffer.contents b

let row_json row =
  Jsonx.Obj
    ([ ("store", Jsonx.Str row.store) ]
     @ (match row.variant with
        | Some v -> [ ("variant", Jsonx.Str (Job.variant_name v)) ]
        | None -> [])
     @ [ ("jobs", Jsonx.Int row.jobs);
         ("ok", Jsonx.Int row.ok);
         ("failed", Jsonx.Int row.failed);
         ("timeout", Jsonx.Int row.timeout);
         ("c_o", Jsonx.Int row.c_o);
         ("c_a", Jsonx.Int row.c_a);
         ("p_u", Jsonx.Int row.p_u);
         ("p_efl", Jsonx.Int row.p_efl);
         ("p_efe", Jsonx.Int row.p_efe);
         ("p_el", Jsonx.Int row.p_el);
         ("images_tested", Jsonx.Int row.images_tested);
         ("n_mismatch", Jsonx.Int row.n_mismatch);
         ("replay_ops", Jsonx.Int row.replay_ops);
         ("bytes_materialized", Jsonx.Int row.bytes_materialized);
         ("oracle_runs", Jsonx.Int row.oracle_runs);
         ("oracle_ops_saved", Jsonx.Int row.oracle_ops_saved);
         ("memo_hits", Jsonx.Int row.memo_hits);
         ("ckpt_bytes", Jsonx.Int row.ckpt_bytes);
         ("batch_fences", Jsonx.Int row.batch_fences);
         ("inherit_hits", Jsonx.Int row.inherit_hits);
         ("batch_saved", Jsonx.Int row.batch_saved);
         ("prune_classes", Jsonx.Int row.prune_classes);
         ("prune_reps", Jsonx.Int row.prune_reps);
         ("images_elided", Jsonx.Int row.images_elided);
         ("prune_expansions", Jsonx.Int row.prune_expansions);
         ("stream_jobs", Jsonx.Int row.stream_jobs);
         ("window_retirements", Jsonx.Int row.window_retirements);
         ("ckpt_ring_evictions", Jsonx.Int row.ckpt_ring_evictions);
         ("peak_live_words", Jsonx.Int row.peak_live_words);
         ("t_equiv", Jsonx.Float row.t_equiv);
         ("wall", Jsonx.Float row.wall) ])

let to_json ?elapsed ?j t =
  let extra =
    (match elapsed with
     | Some e ->
       [ ("elapsed", Jsonx.Float e);
         ("speedup",
          Jsonx.Float (if e > 0. then t.sequential_wall /. e else 0.)) ]
     | None -> [])
    @ (match j with Some j -> [ ("jobs_in_parallel", Jsonx.Int j) ] | None -> [])
  in
  Jsonx.Obj
    ([ ("rows", Jsonx.List (List.map row_json t.rows));
       ("total", row_json t.total);
       ("sequential_wall", Jsonx.Float t.sequential_wall);
       ("metrics", Obs.Metrics.to_json t.metrics) ]
     @ extra)
