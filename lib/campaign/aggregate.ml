(* Fold a campaign journal into Table 4/5-style reports: one row per
   (store, variant) summed across seeds, plus campaign totals and the
   wall-clock speedup the worker pool bought over a sequential sweep. *)

(* How a column folds its per-job values across jobs. *)
type fold =
  | Sum
  | Max    (* a high-water mark: campaign-wide it is the max over jobs
              (workers run sequentially per slot), never a sum *)
  | Count  (* jobs whose result holds the path at all *)

(* The report's counter columns, in report.json order: each column's key,
   its path in a job's result (a top-level member, or one inside the
   "batch", "prune" or "stream" block) and its fold. A member absent from
   a result reads 0, so journals written before a counter existed
   (before the t_gen/t_equiv split, oracle memoization, batching,
   pruning or streaming) still aggregate, as do the runs that leave a
   block out. *)
let columns =
  let top key = (key, [ key ], Sum) in
  [| top "c_o"; top "c_a"; top "p_u"; top "p_efl"; top "p_efe"; top "p_el";
     top "images_tested"; top "n_mismatch"; top "replay_ops";
     top "bytes_materialized"; top "oracle_runs"; top "oracle_ops_saved";
     top "memo_hits"; top "ckpt_bytes";
     ("batch_fences", [ "batch"; "fences" ], Sum);
     ("inherit_hits", [ "batch"; "inherit_hits" ], Sum);
     ("batch_saved", [ "batch"; "replay_ops_saved" ], Sum);
     ("prune_classes", [ "prune"; "classes" ], Sum);
     ("prune_reps", [ "prune"; "reps" ], Sum);
     ("images_elided", [ "prune"; "elided" ], Sum);
     ("prune_expansions", [ "prune"; "expansions" ], Sum);
     ("stream_jobs", [ "stream" ], Count);
     ("window_retirements", [ "stream"; "window_retirements" ], Sum);
     ("ckpt_ring_evictions", [ "stream"; "ckpt_ring_evictions" ], Sum);
     ("peak_live_words", [ "stream"; "peak_live_words" ], Max) |]

type row = {
  store : string;
  variant : Job.variant option;  (* None in the total, over both variants *)
  jobs : int;
  ok : int;
  failed : int;
  timeout : int;
  cols : int array;         (* one per [columns] entry *)
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

(* The column named [key] of [row]. *)
let get row key =
  let rec find i =
    if i = Array.length columns then invalid_arg ("Aggregate.get: " ^ key)
    else
      let k, _, _ = columns.(i) in
      if k = key then row.cols.(i) else find (i + 1)
  in
  find 0

let empty_row store variant =
  { store; variant; jobs = 0; ok = 0; failed = 0; timeout = 0;
    cols = Array.make (Array.length columns) 0; t_equiv = 0.; wall = 0. }

let rec find_path path j =
  match path with
  | [] -> Some j
  | k :: rest -> Option.bind (Jsonx.member k j) (find_path rest)

let add_record row (r : Journal.record) =
  let ok, failed, timeout, result =
    match r.status with
    | Journal.Job_ok -> (1, 0, 0, r.result)
    | Journal.Job_failed _ -> (0, 1, 0, None)
    | Journal.Job_timeout -> (0, 0, 1, None)
  in
  let add i (_, path, fold) =
    let v = Option.bind result (find_path path) in
    let n = Option.value ~default:0 (Option.bind v Jsonx.to_int_opt) in
    match fold with
    | Sum -> row.cols.(i) + n
    | Max -> max row.cols.(i) n
    | Count -> row.cols.(i) + Bool.to_int (Option.is_some v)
  in
  { row with
    jobs = row.jobs + 1;
    ok = row.ok + ok;
    failed = row.failed + failed;
    timeout = row.timeout + timeout;
    cols = Array.mapi add columns;
    t_equiv =
      (row.t_equiv
       +. match result with None -> 0. | Some j -> Jsonx.float_field j "t_equiv");
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
  let c = get row in
  Printf.sprintf "%-16s %-6s | %4d %4d %6s | %4d %4d | %4d %5d %5d %4d | %8d %8d | %8d %7.2f | %7d %8d %6d | %5d %8d | %5d %5d %7d %6d | %8.1f | %8.1f"
    row.store
    (Option.fold ~none:"" ~some:Job.variant_name row.variant)
    row.jobs row.ok (status_cell row) (c "c_o") (c "c_a") (c "p_u")
    (c "p_efl") (c "p_efe") (c "p_el") (c "images_tested") (c "n_mismatch")
    (c "replay_ops") (Witcher.Report.mb (c "bytes_materialized"))
    (c "oracle_runs") (c "oracle_ops_saved") (c "memo_hits")
    (c "inherit_hits") (c "batch_saved") (c "prune_classes") (c "prune_reps")
    (c "images_elided") (c "prune_expansions") row.t_equiv row.wall

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
  let c = get t.total in
  if c "stream_jobs" > 0 then
    Buffer.add_string b
      (Printf.sprintf
         "streaming: %d job(s); %d window retirement(s); %d checkpoint \
          eviction(s); peak live heap %.1f MB\n"
         (c "stream_jobs") (c "window_retirements") (c "ckpt_ring_evictions")
         (Witcher.Report.mb (c "peak_live_words" * 8)));
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
         ("timeout", Jsonx.Int row.timeout) ]
     @ Array.to_list
         (Array.mapi (fun i (key, _, _) -> (key, Jsonx.Int row.cols.(i))) columns)
     @ [ ("t_equiv", Jsonx.Float row.t_equiv); ("wall", Jsonx.Float row.wall) ])

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
