(* Standing benchmark program for the Witcher engine (see perfbench/README.md).

     perfbench.exe setup WORKLOAD SEED [--tiny]
     perfbench.exe measure WORKLOAD SEED [--tiny]
     perfbench.exe trace WORKLOAD SEED [--tiny] [--journal FILE]

   [measure] runs the workload's store runs through the public entry
   points ([Engine.run] / [Engine.run_stream]) with no instrumentation of
   its own and prints one JSON line: the time of the first engine call
   (so the caller can compute set-up time from process start), the wall
   time of the engine calls, and per store run the crash states
   accounted for, the peak live heap and the found-bug keys.

   [setup] stops where [measure] would make its first engine call, so
   set-up time can be sampled without paying for a workload run.

   [trace] runs the same inputs with per-layer timing taken from this
   file, around calls into each layer's public functions, and prints the
   per-layer metrics plus the same per-run records so the caller can
   check parity with an untraced run. For [table5] the exhaustive
   pipeline is composed here in [Engine.run]'s order; [run_stream]'s two
   passes and [Representative]'s expansion waves are internal to
   [Engine], so those workloads report the engine's own stage timers and
   counters (labelled "engine" in the output).

   Each invocation is meant to be a fresh process: peak heap and GC
   counters then cover exactly one workload run. *)

module W = Witcher
module R = Stores.Registry
module J = Obs.Jsonx

let now = Unix.gettimeofday

(* ---------- workloads ---------- *)

type engine = Batch | Stream

type workload = {
  stores : string list;
  pinned : string list;  (* stores that always run the default-seed case *)
  engine : engine;
  config : tiny:bool -> seed:int -> W.Engine.cfg;
}

(* The paper's Table 4/5 session: every registry program, buggy variant,
   default coverage-biased workload, exhaustive validation. Three programs
   keep the default seed's test case in every run: their validation time
   swings 3-9x from one seed to the next (fuel-bound livelock replays on
   rb-tree and b-tree), which no affordable number of test cases per run
   averages out; see perfbench/README.md. *)
let table5 =
  { stores = List.map (fun (e : R.entry) -> e.name) R.all;
    pinned = [ "rb-tree"; "b-tree"; "p-masstree" ];
    engine = Batch;
    config =
      (fun ~tiny ~seed ->
         { W.Engine.default_cfg with
           workload =
             { W.Workload.default with n_ops = (if tiny then 20 else 200); seed }
         }) }

(* YCSB "mixed" traffic through the bounded-memory engine, configured as
   `witcher run --stream --traffic mixed -n 20000 --max-images 150`. *)
let stream_mixed =
  { stores = [ "level-hash"; "cceh" ];
    pinned = [];
    engine = Stream;
    config =
      (fun ~tiny ~seed ->
         let n_ops = if tiny then 400 else 20_000 in
         let max_images = if tiny then 30 else 150 in
         { W.Engine.default_cfg with
           workload = { W.Workload.default with n_ops; seed };
           crash = { W.Crash_gen.default_cfg with max_images };
           traffic = Some { W.Traffic.base with n_ops; seed };
           fuel = max W.Engine.default_cfg.fuel (n_ops * 400);
           ckpt_stride = max W.Engine.default_cfg.ckpt_stride (n_ops / 64) }) }

(* Representative pruning with the caps opened as in `bench prune`, so
   the class registry (not the per-site cap) decides what is validated. *)
let prune_rep =
  { stores = [ "level-hash"; "cceh" ];
    pinned = [];
    engine = Batch;
    config =
      (fun ~tiny ~seed ->
         { W.Engine.default_cfg with
           workload =
             { W.Workload.default with
               n_ops = (if tiny then 60 else 1000); seed };
           crash =
             { W.Crash_gen.default_cfg with
               max_images = 200_000; per_site_cap = 10_000 };
           prune = Prune.Policy.Representative }) }

let workloads =
  [ ("table5", table5); ("stream-mixed", stream_mixed);
    ("prune-rep", prune_rep) ]

(* ---------- set-up: registry lookup and input generation ---------- *)

type job = {
  entry : R.entry;
  seed : int;
  store : W.Store_intf.instance;
  cfg : W.Engine.cfg;
  ops : W.Op.t list;
}

let setup wl ~tiny ~seed =
  List.map
    (fun name ->
       let entry =
         match R.find name with
         | Some e -> e
         | None -> failwith ("perfbench: unknown store " ^ name)
       in
       let store = entry.buggy () in
       let (module S : W.Store_intf.S) = store in
       let seed =
         if List.mem name wl.pinned then W.Workload.default.seed else seed
       in
       let cfg = wl.config ~tiny ~seed in
       (* the same inputs the engine derives from [cfg] *)
       let ops =
         match cfg.traffic with
         | Some tc ->
           W.Traffic.generate
             (if S.supports_scan then tc else W.Traffic.no_scan tc)
         | None ->
           W.Workload.generate
             (if S.supports_scan then cfg.workload
              else W.Workload.no_scan cfg.workload)
       in
       { entry; seed; store; cfg; ops })
    wl.stores

(* ---------- per-run records ---------- *)

(* Found-bug keys at the paper's granularity: distinct (kind, watch site,
   req site), the unit Table 4/5 counts. *)
let bug_keys (pairs : W.Cluster.report list) =
  List.map
    (fun (r : W.Cluster.report) ->
       Printf.sprintf "%s|%s|%s"
         (match r.kind with
          | W.Cluster.C_ordering -> "C-O"
          | W.Cluster.C_atomicity -> "C-A")
         r.watch_sid r.req_sid)
    pairs
  |> List.sort_uniq compare

let run_json (j : job) ~wall ~tested ~elided ~peak ~bugs =
  J.Obj
    [ ("store", J.Str j.entry.name);
      ("seed", J.Int j.seed);
      ("wall_s", J.Float wall);
      ("tested", J.Int tested);
      ("elided", J.Int elided);
      ("peak_live_words", J.Int peak);
      ("bugs", J.List (List.map (fun s -> J.Str s) bugs)) ]

let failed_json (j : job) e =
  J.Obj
    [ ("store", J.Str j.entry.name);
      ("seed", J.Int j.seed);
      ("error", J.Str (Printexc.to_string e)) ]

let run_engine wl (j : job) =
  match wl.engine with
  | Batch -> W.Engine.run ~cfg:j.cfg j.store
  | Stream -> W.Engine.run_stream ~cfg:j.cfg j.store

(* ---------- measure: untraced end-to-end run ---------- *)

let measure wl ~tiny ~seed =
  let jobs = setup wl ~tiny ~seed in
  let t_first_call = now () in
  let runs =
    List.map
      (fun j ->
         let t0 = now () in
         match run_engine wl j with
         | r ->
           run_json j ~wall:(now () -. t0) ~tested:r.images_tested
             ~elided:r.images_elided ~peak:r.peak_live_words
             ~bugs:(bug_keys r.site_pairs)
         | exception e -> failed_json j e)
      jobs
  in
  let wall = now () -. t_first_call in
  J.Obj
    [ ("t_first_call", J.Float t_first_call);
      ("wall_s", J.Float wall);
      ("runs", J.List runs) ]

(* ---------- trace: per-layer split ---------- *)

(* Allocated words so far, from [Gc.quick_stat] as the metric defines. *)
let alloc_words () =
  let s = Gc.quick_stat () in
  s.minor_words +. s.major_words -. s.promoted_words

(* Per-layer accumulators, keyed by metric name. *)
let acc : (string, float) Hashtbl.t = Hashtbl.create 64

let add name v =
  Hashtbl.replace acc name
    (v +. Option.value ~default:0. (Hashtbl.find_opt acc name))

let get name = Option.value ~default:0. (Hashtbl.find_opt acc name)

let ratio a b = if b = 0. then 0. else a /. b

(* Time one layer call: wall seconds and allocated words. *)
let timed f =
  let a0 = alloc_words () in
  let t0 = now () in
  let v = f () in
  let dt = now () -. t0 in
  (v, dt, alloc_words () -. a0)

(* Per-call [Equiv.check] latencies (table5 only), for the percentiles. *)
let check_samples = ref []

(* Each result is written through the campaign journal, the per-job
   cost a `witcher campaign` pays. *)
let journal_append oc (j : job) ~t_wall (r : W.Engine.result) =
  let spec =
    { Campaign.Job.store = j.entry.name; variant = Campaign.Job.Buggy;
      seed = j.seed;
      n_ops = j.cfg.workload.n_ops; max_images = j.cfg.crash.max_images;
      prune = j.cfg.prune; expand_budget = j.cfg.expand_budget }
  in
  let (), dt, _ =
    timed (fun () ->
        Campaign.Journal.append oc
          (Campaign.Journal.record ~spec ~t_wall
             (Campaign.Pool.Ok (Campaign.Journal.result_json r))))
  in
  add "journal.append_s" dt

(* [Engine.run]'s exhaustive path, composed from the public layer
   functions in the same order, each call timed here. Returns the same
   result record the engine would, so it can be journaled and compared. *)
let compose (j : job) =
  let (module S : W.Store_intf.S) = j.store in
  let cfg = j.cfg in
  (* this run's share of the accumulators, for its own result record *)
  let base = Hashtbl.copy acc in
  let delta k = get k -. Option.value ~default:0. (Hashtbl.find_opt base k) in
  let recorded, dt, da =
    timed (fun () ->
        W.Driver.record ~ckpt_stride:cfg.ckpt_stride (module S) j.ops)
  in
  let trace = recorded.trace in
  add "driver.record_s" dt;
  add "driver.record_alloc_mw" (da /. 1e6);
  add "driver.events" (float_of_int (Nvm.Trace.length trace));
  add "driver.ckpt_mb"
    (float_of_int (List.length recorded.checkpoints * recorded.pool_size)
     /. 1e6);
  let conds, dt, _ = timed (fun () -> W.Infer.infer trace) in
  add "infer.infer_s" dt;
  add "infer.conds"
    (float_of_int (W.Infer.n_ordering conds + W.Infer.n_atomicity conds));
  let perf, dt, _ = timed (fun () -> W.Perf.detect trace) in
  add "perf.detect_s" dt;
  let checker, dt, da =
    timed (fun () ->
        let c =
          W.Equiv.create ~fuel:cfg.fuel ~lazy_oracle:cfg.lazy_oracle
            ~memo:cfg.memo ~checkpoints:recorded.checkpoints (module S)
            ~ops:recorded.ops ~committed:recorded.outputs
        in
        if cfg.batch then
          W.Equiv.enable_batch c ~addr_len:(fun tid ->
              (Nvm.Trace.addr_at trace tid, Nvm.Trace.len_at trace tid));
        c)
  in
  add "equiv.check_s" dt;
  add "equiv.alloc_mw" (da /. 1e6);
  let clusters = W.Cluster.create ~store_name:S.name in
  let op_kind_sids =
    Array.init
      (Array.length recorded.ops + 1)
      (fun k ->
         Nvm.Sid.intern
           (W.Cluster.op_kind_of_desc
              (if k = 0 then "create" else W.Op.desc recorded.ops.(k - 1))))
  in
  let n_mismatch = ref 0 in
  let inside_s = ref 0. and inside_alloc = ref 0. in
  let on_image (image : W.Crash_gen.image) =
    let a0 = alloc_words () in
    let t0 = now () in
    let verdict =
      W.Equiv.check ~digest:image.digest ~fence:image.crash_tid
        ~extras:image.extras checker ~img:image.img ~crash_op:image.crash_op
    in
    let t1 = now () in
    let a1 = alloc_words () in
    check_samples := (t1 -. t0) :: !check_samples;
    add "equiv.check_s" (t1 -. t0);
    add "equiv.alloc_mw" ((a1 -. a0) /. 1e6);
    (match verdict with
     | W.Equiv.Consistent -> ()
     | W.Equiv.Inconsistent _ ->
       incr n_mismatch;
       let t2 = now () in
       W.Cluster.add clusters ~image ~op_kind:op_kind_sids.(image.crash_op)
         ~verdict;
       add "cluster.add_s" (now () -. t2));
    inside_s := !inside_s +. (now () -. t0);
    inside_alloc := !inside_alloc +. (alloc_words () -. a0);
    `Continue
  in
  let stats, dt, da =
    timed (fun () ->
        W.Crash_gen.generate ~cfg:cfg.crash ~sig_depth:cfg.sig_depth ~trace
          ~conds ~pool_size:recorded.pool_size ~on_image ())
  in
  add "crash_gen.self_s" (dt -. !inside_s);
  add "crash_gen.alloc_mw" ((da -. !inside_alloc) /. 1e6);
  let (), dt, _ = timed (fun () -> W.Equiv.flush_batch checker) in
  add "equiv.check_s" dt;
  add "crash_gen.candidates" (float_of_int stats.candidates);
  add "crash_gen.generated" (float_of_int stats.generated);
  add "crash_gen.tested" (float_of_int stats.tested);
  add "crash_gen.materialized_kb" (float_of_int stats.bytes_materialized /. 1e3);
  let es = W.Equiv.stats checker in
  let bug_reports = W.Cluster.root_causes clusters in
  let site_pairs = W.Cluster.site_pairs clusters in
  (* §4.5: sites implicated in a correctness bug leave P-U, as in
     [Engine.run]; the journaled payload then matches the engine's *)
  List.iter
    (fun (r : W.Cluster.report) ->
       Hashtbl.remove perf.W.Perf.p_u.sites (Nvm.Sid.intern r.watch_sid);
       Hashtbl.remove perf.W.Perf.p_u.sites (Nvm.Sid.intern r.req_sid))
    site_pairs;
  let count kind =
    List.length
      (List.filter (fun (r : W.Cluster.report) -> r.kind = kind) bug_reports)
  in
  let n_loads, n_stores, n_flushes, n_fences = Nvm.Trace.stats trace in
  { W.Engine.name = S.name; n_ops = List.length j.ops;
    trace_len = Nvm.Trace.length trace; n_loads; n_stores; n_flushes;
    n_fences; n_ord_conds = W.Infer.n_ordering conds;
    n_atom_conds = W.Infer.n_atomicity conds;
    n_guardians = W.Infer.n_guardians conds;
    images_generated = stats.generated; images_tested = stats.tested;
    n_mismatch = !n_mismatch; n_clusters = W.Cluster.n_clusters clusters;
    c_o = count W.Cluster.C_ordering; c_a = count W.Cluster.C_atomicity;
    perf; bug_reports; site_pairs;
    all_clusters = W.Cluster.reports clusters;
    per_op_images = stats.per_op_images; replay_ops = es.n_replay_ops;
    replay_early_stops = es.n_early_stops;
    bytes_materialized = stats.bytes_materialized;
    oracle_runs = es.n_oracle_runs; oracle_ops_saved = es.n_oracle_ops_saved;
    memo_hits = es.n_memo_hits;
    ckpt_bytes = List.length recorded.checkpoints * recorded.pool_size;
    batch_on = cfg.batch; batch_fences = es.n_batch_fences;
    batch_images = es.n_batch_images; inherit_hits = es.n_inherit_hits;
    inherit_ops_saved = es.n_inherit_ops_saved; prune_policy = cfg.prune;
    prune_classes = 0; prune_reps = 0; images_deferred = stats.deferred;
    images_elided = 0; prune_expansions = 0; seed_memo_hits = 0;
    class_outcomes = []; stream_on = false; window_retirements = 0;
    ckpt_ring_evictions = 0; peak_live_words = 0;
    t_record = delta "driver.record_s"; t_infer = delta "infer.infer_s";
    t_gen = delta "crash_gen.self_s"; t_equiv = delta "equiv.check_s" }

(* Layer numbers of a run the engine composed itself: its stage timers
   and counters. *)
let engine_reported wl (r : W.Engine.result) =
  add "driver.record_s" r.t_record;
  add "driver.events" (float_of_int r.trace_len);
  add "driver.ckpt_mb" (float_of_int r.ckpt_bytes /. 1e6);
  add "infer.infer_s" r.t_infer;
  add "infer.conds" (float_of_int (r.n_ord_conds + r.n_atom_conds));
  add "crash_gen.self_s" r.t_gen;
  add "crash_gen.generated" (float_of_int r.images_generated);
  add "crash_gen.tested" (float_of_int r.images_tested);
  add "crash_gen.materialized_kb" (float_of_int r.bytes_materialized /. 1e3);
  add "equiv.check_s" r.t_equiv;
  add "prune.classes" (float_of_int r.prune_classes);
  add "prune.reps" (float_of_int r.prune_reps);
  add "prune.elided" (float_of_int r.images_elided);
  add "prune.expansions" (float_of_int r.prune_expansions);
  if wl.engine = Stream then begin
    add "stream.pass_a_s" r.t_record;
    add "stream.pass_b_s" (r.t_gen +. r.t_equiv)
  end;
  add "stream.window_retirements" (float_of_int r.window_retirements);
  add "stream.ckpt_ring_evictions" (float_of_int r.ckpt_ring_evictions)

(* Counters shared by both sources, from the result record. *)
let result_counters (r : W.Engine.result) =
  add "equiv.replay_ops" (float_of_int r.replay_ops);
  add "equiv.early_stops" (float_of_int r.replay_early_stops);
  add "equiv.oracle_runs" (float_of_int r.oracle_runs);
  add "equiv.oracle_ops_saved" (float_of_int r.oracle_ops_saved);
  add "equiv.memo_hits" (float_of_int r.memo_hits);
  add "equiv.inherit_hits" (float_of_int r.inherit_hits);
  add "equiv.batch_images" (float_of_int r.batch_images);
  add "cluster.clusters" (float_of_int r.n_clusters)

(* The highest percentile with at least ten samples beyond it, capped at
   p99; returns (percentile, value). *)
let tail_percentile sorted =
  let n = Array.length sorted in
  if n = 0 then (0., 0.)
  else begin
    let pct = Float.min 99. (100. *. (1. -. (10. /. float_of_int n))) in
    let pct = Float.max 50. pct in
    let idx = min (n - 1) (int_of_float (pct /. 100. *. float_of_int n)) in
    (pct, sorted.(idx))
  end

let trace_run wl ~tiny ~seed ~journal =
  let composed =
    wl.engine = Batch && (wl.config ~tiny ~seed).prune = Prune.Policy.Exhaustive
  in
  let jobs, dt, _ = timed (fun () -> setup wl ~tiny ~seed) in
  add "workload.gen_s" dt;
  let oc = open_out journal in
  let gc0 = Gc.quick_stat () in
  let a0 = alloc_words () in
  let wall = ref 0. in
  let runs =
    List.map
      (fun j ->
         let t0 = now () in
         let r =
           if composed then compose j
           else begin
             let r = run_engine wl j in
             engine_reported wl r;
             r
           end
         in
         let dt = now () -. t0 in
         wall := !wall +. dt;
         add ("store." ^ j.entry.name ^ ".wall_s") dt;
         result_counters r;
         journal_append oc j ~t_wall:dt r;
         run_json j ~wall:dt ~tested:r.images_tested ~elided:r.images_elided
           ~peak:0 ~bugs:(bug_keys r.site_pairs))
      jobs
  in
  let gc1 = Gc.quick_stat () in
  add "gc.alloc_mw" ((alloc_words () -. a0) /. 1e6);
  add "gc.major_collections"
    (float_of_int (gc1.major_collections - gc0.major_collections));
  close_out oc;
  (* one [Equiv.check] per tested image, in both sources *)
  let checks = get "crash_gen.tested" in
  let sorted = Array.of_list (List.rev !check_samples) in
  Array.sort compare sorted;
  let p50 = if sorted = [||] then 0. else sorted.(Array.length sorted / 2) in
  let tail_pct, tail = tail_percentile sorted in
  let layer_sum =
    List.fold_left (fun s k -> s +. get k) 0.
      [ "driver.record_s"; "infer.infer_s"; "perf.detect_s";
        "crash_gen.self_s"; "equiv.check_s"; "cluster.add_s" ]
  in
  let metrics =
    [ ("workload.gen_s", get "workload.gen_s");
      ("driver.record_s", get "driver.record_s");
      ("driver.record_alloc_mw", get "driver.record_alloc_mw");
      ("driver.events_per_s", ratio (get "driver.events") (get "driver.record_s"));
      ("driver.ckpt_mb", get "driver.ckpt_mb");
      ("infer.infer_s", get "infer.infer_s");
      ("infer.conds", get "infer.conds");
      ("perf.detect_s", get "perf.detect_s");
      ("crash_gen.self_s", get "crash_gen.self_s");
      ("crash_gen.alloc_mw", get "crash_gen.alloc_mw");
      ("crash_gen.candidates", get "crash_gen.candidates");
      ("crash_gen.generated", get "crash_gen.generated");
      ("crash_gen.tested", get "crash_gen.tested");
      ("crash_gen.tested_ratio",
       ratio (get "crash_gen.tested") (get "crash_gen.candidates"));
      ("crash_gen.materialized_kb", get "crash_gen.materialized_kb");
      ("equiv.check_s", get "equiv.check_s");
      ("equiv.check_p50_us", p50 *. 1e6);
      ("equiv.check_p99_us", tail *. 1e6);
      ("equiv.check_tail_pct", tail_pct);
      ("equiv.check_samples", float_of_int (Array.length sorted));
      ("equiv.checks", checks);
      ("equiv.replay_ops", get "equiv.replay_ops");
      ("equiv.replay_ops_per_check", ratio (get "equiv.replay_ops") checks);
      ("equiv.early_stop_ratio", ratio (get "equiv.early_stops") checks);
      ("equiv.oracle_runs", get "equiv.oracle_runs");
      ("equiv.oracle_ops_saved", get "equiv.oracle_ops_saved");
      ("equiv.memo_hit_ratio", ratio (get "equiv.memo_hits") checks);
      ("equiv.inherit_hit_ratio",
       ratio (get "equiv.inherit_hits") (get "equiv.batch_images"));
      ("equiv.alloc_mw", get "equiv.alloc_mw");
      ("cluster.add_s", get "cluster.add_s");
      ("cluster.clusters", get "cluster.clusters");
      ("prune.classes", get "prune.classes");
      ("prune.reps", get "prune.reps");
      ("prune.elided_ratio",
       ratio (get "prune.elided")
         (get "crash_gen.tested" +. get "prune.elided"));
      ("prune.expansions", get "prune.expansions");
      ("stream.pass_a_s", get "stream.pass_a_s");
      ("stream.pass_b_s", get "stream.pass_b_s");
      ("stream.window_retirements", get "stream.window_retirements");
      ("stream.ckpt_ring_evictions", get "stream.ckpt_ring_evictions");
      ("journal.append_s", get "journal.append_s");
      ("gc.major_collections", get "gc.major_collections");
      ("gc.alloc_mw", get "gc.alloc_mw");
      ("obs.residual_s", !wall -. layer_sum);
      ("obs.layer_share", ratio layer_sum !wall) ]
    @ List.map
      (fun (e : R.entry) ->
         let k = "store." ^ e.name ^ ".wall_s" in
         (k, get k))
      R.all
  in
  J.Obj
    [ ("source", J.Str (if composed then "composed" else "engine"));
      ("wall_s", J.Float !wall);
      ("layers", J.Obj (List.map (fun (k, v) -> (k, J.Float v)) metrics));
      ("runs", J.List runs) ]

(* ---------- entry point ---------- *)

let () =
  let usage () =
    prerr_endline
      "usage: perfbench.exe (setup|measure|trace) WORKLOAD SEED [--tiny] \
       [--journal FILE]";
    exit 2
  in
  match Array.to_list Sys.argv with
  | _ :: mode :: name :: seed :: rest ->
    let wl =
      match List.assoc_opt name workloads with
      | Some wl -> wl
      | None -> usage ()
    in
    let seed = match int_of_string_opt seed with Some s -> s | None -> usage () in
    let tiny = List.mem "--tiny" rest in
    let rec journal = function
      | "--journal" :: f :: _ -> f
      | _ :: r -> journal r
      | [] -> Filename.null
    in
    let out =
      match mode with
      | "setup" ->
        ignore (setup wl ~tiny ~seed);
        J.Obj [ ("t_first_call", J.Float (now ())) ]
      | "measure" -> measure wl ~tiny ~seed
      | "trace" -> trace_run wl ~tiny ~seed ~journal:(journal rest)
      | _ -> usage ()
    in
    print_endline (J.to_string out)
  | _ -> usage ()
