(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§7) against the simulated-NVM reproduction, plus Bechamel
   micro-benchmarks for the pipeline stages.

     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- table5 fig4  # selected sections
     WITCHER_OPS=500 dune exec bench/main.exe # larger workloads

   The paper ran 2,000-operation test cases per program on a 32-core Xeon
   for hours; the default here is 200 operations so the full suite runs
   in minutes. Shapes, not absolute numbers, are the reproduction target
   (see EXPERIMENTS.md). *)

module W = Witcher
module R = Stores.Registry

let n_ops =
  try int_of_string (Sys.getenv "WITCHER_OPS") with _ -> 200

let engine_cfg =
  { W.Engine.default_cfg with
    workload = { W.Workload.default with n_ops } }

let line = String.make 118 '-'

let section name =
  Printf.printf "\n%s\n== %s\n%s\n" line name line

(* memoize engine runs: several sections reuse them *)
let results : (string, W.Engine.result) Hashtbl.t = Hashtbl.create 32
let recorded : (string, W.Driver.recorded) Hashtbl.t = Hashtbl.create 32

let run_store (e : R.entry) =
  match Hashtbl.find_opt results e.name with
  | Some r -> r
  | None ->
    let r = W.Engine.run ~cfg:engine_cfg (e.buggy ()) in
    Hashtbl.replace results e.name r;
    r

let record_store (e : R.entry) =
  match Hashtbl.find_opt recorded e.name with
  | Some r -> r
  | None ->
    let module S = (val e.buggy ()) in
    let wl =
      if S.supports_scan then { W.Workload.default with n_ops }
      else W.Workload.no_scan { W.Workload.default with n_ops }
    in
    let r = W.Driver.record (module S) (W.Workload.generate wl) in
    Hashtbl.replace recorded e.name r;
    r

(* --- Table 1 & 2: static comparisons --- *)

let table1 () =
  section "Table 1: comparison with existing crash-consistency testing tools";
  print_endline (W.Report.table1 ())

let table2 () =
  section "Table 2: likely-correctness condition inference rules";
  print_endline (W.Report.table2 ());
  (* live demonstration: the rules firing on the Level-Hashing trace *)
  let e = Option.get (R.find "level-hash") in
  let r = record_store e in
  let conds = W.Infer.infer r.trace in
  Printf.printf
    "\nLive on level-hash (%d ops): %d ordering conditions (PO1+PO2+PO3), \
     %d guardians => %d atomicity conditions\n"
    n_ops (W.Infer.n_ordering conds) (W.Infer.n_guardians conds)
    (W.Infer.n_atomicity conds)

(* --- Table 3: the tested programs --- *)

let table3 () =
  section "Table 3: tested NVM programs";
  Printf.printf "%-16s | %-13s | %-4s | %-22s | %s\n" "Program" "Group" "Lib"
    "Core NVM construct" "Seeded paper bug ids";
  print_endline line;
  List.iter
    (fun (e : R.entry) ->
       Printf.printf "%-16s | %-13s | %-4s | %-22s | %s\n" e.name
         (R.group_name e.group)
         (match e.lib with `LL -> "LL" | `TX -> "TX")
         e.construct
         (String.concat "," (List.map string_of_int e.paper_bug_ids)))
    R.all

(* --- Table 4: detected correctness bugs --- *)

let table4 () =
  section "Table 4: correctness bugs discovered by Witcher (root causes)";
  let total_co = ref 0 and total_ca = ref 0 in
  List.iter
    (fun (e : R.entry) ->
       if e.group <> R.Non_kv then begin
         let r = run_store e in
         total_co := !total_co + r.c_o;
         total_ca := !total_ca + r.c_a;
         if r.bug_reports <> [] then begin
           Printf.printf "\n%s (seeded paper bugs: %s) -> %d C-O, %d C-A\n"
             e.name
             (String.concat "," (List.map string_of_int e.paper_bug_ids))
             r.c_o r.c_a;
           List.iteri
             (fun i (rep : W.Cluster.report) ->
                Printf.printf "  %2d. %s\n" (i + 1)
                  (Fmt.str "%a" W.Cluster.pp_report rep))
             r.bug_reports
         end
       end)
    R.all;
  Printf.printf "\nTotal: %d C-O + %d C-A root causes across the fleet \
                 (paper: 25 C-O + 22 C-A from 2000-op runs)\n"
    !total_co !total_ca

(* --- Table 5: per-store statistics --- *)

let table5 () =
  section "Table 5: detected bugs and per-store Witcher statistics";
  print_endline (W.Report.result_header ());
  print_endline line;
  let tot = Array.make 12 0 in
  List.iter
    (fun (e : R.entry) ->
       let r = run_store e in
       print_endline (W.Report.result_row r);
       let p n i = tot.(i) <- tot.(i) + n in
       p r.c_o 0; p r.c_a 1;
       p (W.Perf.n_bugs r.perf.p_u) 2;
       p (W.Perf.n_bugs r.perf.p_efl) 3;
       p (W.Perf.n_bugs r.perf.p_efe) 4;
       p (W.Perf.n_bugs r.perf.p_el) 5;
       p r.n_ord_conds 6; p r.n_atom_conds 7;
       p r.images_generated 8; p r.images_tested 9;
       p r.n_mismatch 10; p r.n_clusters 11)
    R.all;
  print_endline line;
  Printf.printf
    "%-18s | %4d %4d | %4d %5d %5d %4d | %9d %9d | %8d %8d %8d | %8d |\n"
    "Total" tot.(0) tot.(1) tot.(2) tot.(3) tot.(4) tot.(5) tot.(6) tot.(7)
    tot.(8) tot.(9) tot.(10) tot.(11);
  (* negative control: fixed variants must be clean *)
  Printf.printf "\nFixed-variant control (all must report 0 correctness bugs):\n";
  List.iter
    (fun (e : R.entry) ->
       let r = W.Engine.run ~cfg:engine_cfg (e.fixed ()) in
       Printf.printf "  %-18s C-O=%d C-A=%d %s\n" e.name r.c_o r.c_a
         (if r.c_o + r.c_a = 0 then "[clean]" else "[UNEXPECTED]"))
    R.all

(* --- Figure 4: test-space comparison with Yat --- *)

let fig4 () =
  section "Figure 4: crash-state test space, Yat (exhaustive) vs Witcher";
  List.iter
    (fun name ->
       let e = Option.get (R.find name) in
       let rec_ = record_store e in
       let r = run_store e in
       let series =
         W.Yat.estimate ~trace:rec_.trace ~pool_size:rec_.pool_size
           ~per_op_images:r.per_op_images ~n_ops
       in
       print_endline (W.Report.figure4 ~name series ~step:(max 1 (n_ops / 12)));
       let last = Array.length series.yat_log10 - 1 in
       Printf.printf
         "  => Yat would validate ~10^%.0f states; Witcher tests %d images \
          (paper: 10^31 vs ~5.5x10^4 for level-hash at 2000 ops)\n\n"
         series.yat_log10.(last) series.witcher.(last))
    [ "level-hash"; "fast-fair"; "cceh" ]

(* --- 7.5: random state sampling baseline --- *)

let random_baseline () =
  section "Random NVM-state sampling vs likely-correctness-condition pruning (7.5)";
  List.iter
    (fun name ->
       let e = Option.get (R.find name) in
       let rec_ = record_store e in
       let r = run_store e in
       let module S = (val e.buggy ()) in
       let checker =
         W.Equiv.create (module S) ~ops:rec_.ops ~committed:rec_.outputs
       in
       let check ~img ~crash_op = W.Equiv.check checker ~img ~crash_op in
       let rnd =
         W.Random_explore.run ~trace:rec_.trace ~pool_size:rec_.pool_size
           ~samples_per_fence:1 ~check ()
       in
       Printf.printf
         "%-12s witcher: %4d images -> %3d mismatches, %2d root causes | random: %4d images -> %3d mismatches at %d crash sites\n"
         name r.images_tested r.n_mismatch (r.c_o + r.c_a) rnd.sampled
         rnd.mismatches rnd.distinct_crash_sites)
    [ "level-hash"; "fast-fair"; "cceh" ];
  print_endline
    "\n(The paper sampled 100M random states per program for ~a week and\n\
     \ found at most 1-2 of Witcher's bugs; random mismatch counts here are\n\
     \ dominated by a few shallow states while guided images pinpoint\n\
     \ distinct root causes.)"

(* --- 7.6: comparison with Agamotto / PMTest oracles --- *)

let compare_tools () =
  section "Tool comparison: universal / annotation oracles vs output equivalence (7.6)";
  let stores = [ "b-tree"; "rb-tree"; "hashmap-atomic"; "p-clht"; "memcached"; "redis" ] in
  Printf.printf "%-16s | %22s | %30s | %s\n" "Program"
    "Witcher (corr., perf)" "Agamotto-style (universal)" "notes";
  print_endline line;
  List.iter
    (fun name ->
       let e = Option.get (R.find name) in
       let rec_ = record_store e in
       let r = run_store e in
       let aga = W.Baselines.agamotto rec_.trace in
       let perf_bugs =
         W.Perf.n_bugs r.perf.p_u + W.Perf.n_bugs r.perf.p_efl
         + W.Perf.n_bugs r.perf.p_efe + W.Perf.n_bugs r.perf.p_el
       in
       Printf.printf "%-16s | %11d, %8d | miss-persist:%3d miss-log:%3d | %s\n"
         name (r.c_o + r.c_a) perf_bugs
         (List.length aga.missing_persist_sites)
         (List.length aga.missing_log_sites)
         (if r.c_o + r.c_a > 0
            && aga.missing_persist_sites = [] && aga.missing_log_sites = []
          then "app-specific bugs invisible to universal oracles"
          else ""))
    stores;
  (* the Redis benign-store false positive *)
  let e = Option.get (R.find "redis") in
  let rec_ = record_store e in
  let anns = [ W.Baselines.In_tx { sid = "redis:init.zero_root" } ] in
  let viol = W.Baselines.pmtest rec_.trace ~pool_size:rec_.pool_size ~annotations:anns in
  let r = run_store e in
  Printf.printf
    "\nPMTest-style annotation on redis:init.zero_root: %d violation(s) flagged.\n\
     Witcher on the same trace: %d correctness bugs - the unprotected store\n\
     rewrites zeroes with zeroes, so output equivalence prunes the false\n\
     positive exactly as in 7.6.\n"
    (List.length viol) (r.c_o + r.c_a)

(* --- 7.7: non-key-value programs --- *)

let nonkv () =
  section "Non-key-value NVM programs: persistent array and queue (7.7)";
  List.iter
    (fun name ->
       let e = Option.get (R.find name) in
       let r = run_store e in
       Printf.printf "%s\n" (W.Report.result_row r);
       List.iteri
         (fun i (rep : W.Cluster.report) ->
            Printf.printf "  %2d. %s\n" (i + 1)
              (Fmt.str "%a" W.Cluster.pp_report rep))
         r.bug_reports)
    [ "p-array"; "p-queue" ];
  print_endline
    "(The paper found one known bug in the persistent array and none in\n\
     the queue; the array's realloc-ordering defect is the seeded one.)"

let max_images =
  try int_of_string (Sys.getenv "WITCHER_MAX_IMAGES")
  with _ -> W.Crash_gen.default_cfg.max_images

(* Machine-readable rows collected by sections for --json / BENCH.json. *)
let json_sections : (string * Obs.Jsonx.t) list ref = ref []

(* --- prune: path-representative pruning vs exhaustive validation --- *)

let prune_ops =
  let s =
    try Sys.getenv "WITCHER_PRUNE_OPS" with Not_found -> "200,1000,2000"
  in
  List.filter_map int_of_string_opt
    (List.map String.trim (String.split_on_char ',' s))

let prune () =
  section
    "Path-representative pruning: Exhaustive vs Representative validation \
     (lib/prune)";
  (* The default crash config's per-site cap is itself a blunt pruner: at
     2000 ops it squeezes the eligible stream down to a few hundred
     images, leaving class-based pruning nothing to elide. This section
     benchmarks the configuration the subsystem exists for: caps opened
     up and the equivalence-class registry deciding which images are
     worth validating. Both policies see the identical eligible stream. *)
  let crash =
    { W.Crash_gen.default_cfg with
      max_images = 200_000; per_site_cap = 10_000 }
  in
  Printf.printf
    "%-12s | %5s | %8s | %8s %8s | %8s %8s %6s %6s | %6s %7s | %s\n"
    "store" "ops" "#img-gen" "exh-#val" "exh-t(s)" "rep-#val" "rep-t(s)"
    "#cls" "#expnd" "elide%" "recall%" "parity";
  print_endline line;
  let rows = ref [] in
  (* Found-bug sets at the paper's bug granularity: distinct (kind,
     site-pair) keys, the unit Table 4/5 counts. Cluster *recall* (how
     many of exhaustive's path-level clusters the pruned run also
     reports) is printed per row; at small workloads it is 100% (the
     qcheck gate in test/ asserts exact cluster parity there), at larger
     ones a collapsed class can hide a mid-sequence divergent member, so
     it is reported rather than asserted. *)
  let bug_key (r : W.Cluster.report) = (r.kind, r.watch_sid, r.req_sid) in
  let keys rs = List.sort_uniq compare (List.map bug_key rs) in
  let cluster_key (r : W.Cluster.report) =
    (r.kind, r.op_desc, r.path_hash, r.watch_sid, r.req_sid, r.rule)
  in
  let cluster_keys rs = List.sort_uniq compare (List.map cluster_key rs) in
  let baseline_200 = ref 0. in
  let worst_rep = ref 0. in
  let n_min = List.fold_left min (List.hd prune_ops) prune_ops in
  (* Representative results at the smallest op count, kept as the
     baseline for the --sig-depth elision-delta sub-report below. *)
  let base_for_sig = ref [] in
  List.iter
    (fun name ->
       let e = Option.get (R.find name) in
       List.iter
         (fun n ->
            let cfg policy =
              { W.Engine.default_cfg with
                workload = { W.Workload.default with n_ops = n };
                crash; prune = policy }
            in
            let timed policy =
              let t0 = Unix.gettimeofday () in
              let r = W.Engine.run ~cfg:(cfg policy) (e.buggy ()) in
              (r, Unix.gettimeofday () -. t0)
            in
            let ex, t_ex = timed Prune.Policy.Exhaustive in
            let rp, t_rp = timed Prune.Policy.Representative in
            (* Hard parity: pruning must report the same found-bug set
               (distinct kind + site pairs, and the same root-cause
               counts) as exhaustive validation. *)
            let parity =
              keys ex.all_clusters = keys rp.all_clusters
              && (ex.c_o, ex.c_a) = (rp.c_o, rp.c_a)
            in
            if not parity then begin
              let kx = keys ex.all_clusters and kr = keys rp.all_clusters in
              let show (kind, w, rq) =
                Printf.sprintf "  %s %s -> %s"
                  (match kind with
                   | W.Cluster.C_ordering -> "C-O"
                   | W.Cluster.C_atomicity -> "C-A")
                  w rq
              in
              List.iter
                (fun k ->
                   if not (List.mem k kr) then
                     print_endline ("missed by representative:\n" ^ show k))
                kx;
              List.iter
                (fun k ->
                   if not (List.mem k kx) then
                     print_endline ("only in representative:\n" ^ show k))
                kr;
              failwith
                (Printf.sprintf
                   "bench prune: %s at %d ops: Representative found %d bug \
                    site-pairs (%d C-O, %d C-A), Exhaustive %d (%d, %d) - \
                    pruning missed or invented bugs"
                   name n (List.length kr) rp.c_o rp.c_a (List.length kx)
                   ex.c_o ex.c_a)
            end;
            let n_cl_ex = List.length (cluster_keys ex.all_clusters) in
            let n_cl_common =
              List.length
                (List.filter
                   (fun k -> List.mem k (cluster_keys ex.all_clusters))
                   (cluster_keys rp.all_clusters))
            in
            let recall =
              if n_cl_ex = 0 then 100.
              else 100. *. float_of_int n_cl_common /. float_of_int n_cl_ex
            in
            if n = 200 then baseline_200 := max !baseline_200 t_ex;
            if n = n_min then base_for_sig := (name, rp) :: !base_for_sig;
            if n = List.fold_left max 0 prune_ops then
              worst_rep := max !worst_rep t_rp;
            let total = rp.images_tested + rp.images_elided in
            let elide_pct =
              if total = 0 then 0.
              else 100. *. float_of_int rp.images_elided /. float_of_int total
            in
            Printf.printf
              "%-12s | %5d | %8d | %8d %8.2f | %8d %8.2f %6d %6d | %5.1f%% %6.1f%% | %s\n"
              name n ex.images_generated ex.images_tested t_ex
              rp.images_tested t_rp rp.prune_classes rp.prune_expansions
              elide_pct recall
              (if parity then "ok" else "FAIL");
            rows :=
              Obs.Jsonx.Obj
                [ ("store", Obs.Jsonx.Str name);
                  ("n_ops", Obs.Jsonx.Int n);
                  ("images_generated", Obs.Jsonx.Int ex.images_generated);
                  ("exhaustive_validated", Obs.Jsonx.Int ex.images_tested);
                  ("exhaustive_time_s", Obs.Jsonx.Float t_ex);
                  ("representative_validated", Obs.Jsonx.Int rp.images_tested);
                  ("representative_time_s", Obs.Jsonx.Float t_rp);
                  ("classes", Obs.Jsonx.Int rp.prune_classes);
                  ("representatives", Obs.Jsonx.Int rp.prune_reps);
                  ("expansions", Obs.Jsonx.Int rp.prune_expansions);
                  ("images_elided", Obs.Jsonx.Int rp.images_elided);
                  ("elide_pct", Obs.Jsonx.Float elide_pct);
                  ("bug_site_pairs", Obs.Jsonx.Int (List.length (keys rp.all_clusters)));
                  ("cluster_recall_pct", Obs.Jsonx.Float recall);
                  ("parity", Obs.Jsonx.Bool parity) ]
              :: !rows)
         prune_ops)
    [ "level-hash"; "fast-fair"; "cceh" ];
  print_endline line;
  if !baseline_200 > 0. && !worst_rep > 0. then
    Printf.printf
      "\nWall-clock check: slowest Representative run at %d ops = %.2fs vs \
       200-op Exhaustive baseline = %.2fs (%s)\n"
      (List.fold_left max 0 prune_ops) !worst_rep !baseline_200
      (if !worst_rep <= !baseline_200 then "within baseline"
       else Printf.sprintf "%.1fx baseline" (!worst_rep /. !baseline_200));
  print_endline
    "\n(Found-bug-set parity — distinct kind+site-pairs and root-cause\n\
     \ counts — is asserted per row; any divergence aborts the benchmark.\n\
     \ Representative validates one image per path-signature class plus\n\
     \ logarithmic and tail spot checks, and re-expands a class\n\
     \ exhaustively when any verdict diverges; recall%% reports how many\n\
     \ of exhaustive's path-level clusters survive the pruning.)";
  (* Sub-report: truncated path signatures (--sig-depth K). Hashing only
     the crashing op's last K sites merges more images per class. The
     divergence-driven expansion safety net stays on, but it only fires
     on *validated* members — on short-path stores (cceh) a coarse class
     can hide a divergent elided member, so found-bug parity is reported
     per row rather than asserted: the delta IS the measurement, and the
     reason --sig-depth defaults to 0. *)
  let sig_depth =
    try int_of_string (Sys.getenv "WITCHER_SIG_DEPTH") with _ -> 4
  in
  Printf.printf
    "\nTruncated path signatures (--sig-depth %d vs full path, %d ops, \
     Representative):\n"
    sig_depth n_min;
  Printf.printf "%-12s | %6s %6s | %7s %7s %7s | %6s | %s\n"
    "store" "cls-0" "cls-K" "elide-0" "elide-K" "delta" "#expnd" "parity";
  let sig_rows = ref [] in
  List.iter
    (fun (name, (rp0 : W.Engine.result)) ->
       let e = Option.get (R.find name) in
       let cfg =
         { W.Engine.default_cfg with
           workload = { W.Workload.default with n_ops = n_min };
           crash; prune = Prune.Policy.Representative; sig_depth }
       in
       let rk = W.Engine.run ~cfg (e.buggy ()) in
       let elide (r : W.Engine.result) =
         let total = r.images_tested + r.images_elided in
         if total = 0 then 0.
         else 100. *. float_of_int r.images_elided /. float_of_int total
       in
       let parity =
         keys rp0.all_clusters = keys rk.all_clusters
         && (rp0.c_o, rp0.c_a) = (rk.c_o, rk.c_a)
       in
       Printf.printf
         "%-12s | %6d %6d | %6.1f%% %6.1f%% %+6.1f%% | %6d | %s\n"
         name rp0.prune_classes rk.prune_classes (elide rp0) (elide rk)
         (elide rk -. elide rp0) rk.prune_expansions
         (if parity then "ok" else "FAIL");
       sig_rows :=
         Obs.Jsonx.Obj
           [ ("store", Obs.Jsonx.Str name);
             ("n_ops", Obs.Jsonx.Int n_min);
             ("sig_depth", Obs.Jsonx.Int sig_depth);
             ("classes_full", Obs.Jsonx.Int rp0.prune_classes);
             ("classes_truncated", Obs.Jsonx.Int rk.prune_classes);
             ("elide_pct_full", Obs.Jsonx.Float (elide rp0));
             ("elide_pct_truncated", Obs.Jsonx.Float (elide rk));
             ("elide_pct_delta", Obs.Jsonx.Float (elide rk -. elide rp0));
             ("expansions", Obs.Jsonx.Int rk.prune_expansions);
             ("parity", Obs.Jsonx.Bool parity) ]
         :: !sig_rows)
    (List.rev !base_for_sig);
  print_endline
    "(sig-depth trades recall for elision: a FAIL row means the coarse\n\
     \ signature hid a divergent elided member — expected on short-path\n\
     \ stores, and why --sig-depth defaults to 0/full.)";
  json_sections :=
    ("prune_sig_depth", Obs.Jsonx.List (List.rev !sig_rows))
    :: ("prune", Obs.Jsonx.List (List.rev !rows))
    :: !json_sections

(* --- stream: bounded-memory streaming engine vs the batch pipeline --- *)

let stream_parity_ops =
  try int_of_string (Sys.getenv "WITCHER_STREAM_PARITY_OPS") with _ -> 2000

let stream_perf_ops =
  try int_of_string (Sys.getenv "WITCHER_STREAM_PERF_OPS") with _ -> 100_000

let stream_max_images =
  try int_of_string (Sys.getenv "WITCHER_STREAM_MAX_IMAGES") with _ -> 150

let stream () =
  section
    "Streaming pipeline: bounded-memory run_stream vs batch run (DESIGN §9)";
  let timed f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  (* Everything verdict-shaped in a result; timings and memory excluded. *)
  let fingerprint (r : W.Engine.result) =
    ( ( r.n_mismatch, r.n_clusters, r.c_o, r.c_a,
        r.images_generated, r.images_tested ),
      List.sort compare r.all_clusters,
      List.sort compare r.site_pairs,
      List.sort compare r.bug_reports )
  in
  (* Part 1 - hard verdict parity at paper scale. run_stream is a
     bounded-memory re-plumbing of run, not a different analysis: with a
     deliberately small window (8 x 1024 events vs a trace tens of times
     larger) and a 4-deep checkpoint ring, every verdict-shaped field
     must match the batch engine exactly. Any divergence aborts. *)
  Printf.printf
    "Verdict parity at %d ops (window 8 x 1024 events, ckpt ring 4):\n\n"
    stream_parity_ops;
  Printf.printf "%-12s | %8s %8s %8s | %6s %6s | %8s %8s | %9s %9s | %s\n"
    "store" "#img-gen" "#img-tst" "#mismtch" "C-O" "C-A" "retired" "evicted"
    "batch(s)" "strm(s)" "parity";
  print_endline line;
  let parity_rows = ref [] in
  List.iter
    (fun name ->
       let e = Option.get (R.find name) in
       let c =
         { W.Engine.default_cfg with
           workload =
             { W.Workload.default with n_ops = stream_parity_ops };
           crash = { W.Crash_gen.default_cfg with max_images } }
       in
       let sc =
         { c with
           W.Engine.stream_seg_shift = 10; stream_window = 8; ckpt_ring = 4 }
       in
       let b, t_b = timed (fun () -> W.Engine.run ~cfg:c (e.buggy ())) in
       let s, t_s =
         timed (fun () -> W.Engine.run_stream ~cfg:sc (e.buggy ()))
       in
       if fingerprint b <> fingerprint s then
         failwith
           (Printf.sprintf
              "bench stream: %s at %d ops: stream/batch verdict divergence \
               (batch: %d mismatch %d clusters %d gen %d tested; \
               stream: %d mismatch %d clusters %d gen %d tested)"
              name stream_parity_ops b.n_mismatch b.n_clusters
              b.images_generated b.images_tested s.n_mismatch s.n_clusters
              s.images_generated s.images_tested);
       Printf.printf
         "%-12s | %8d %8d %8d | %6d %6d | %8d %8d | %9.2f %9.2f | ok\n"
         name s.images_generated s.images_tested s.n_mismatch s.c_o s.c_a
         s.window_retirements s.ckpt_ring_evictions t_b t_s;
       parity_rows :=
         Obs.Jsonx.Obj
           [ ("store", Obs.Jsonx.Str name);
             ("n_ops", Obs.Jsonx.Int stream_parity_ops);
             ("images_generated", Obs.Jsonx.Int s.images_generated);
             ("images_tested", Obs.Jsonx.Int s.images_tested);
             ("n_mismatch", Obs.Jsonx.Int s.n_mismatch);
             ("window_retirements", Obs.Jsonx.Int s.window_retirements);
             ("ckpt_ring_evictions", Obs.Jsonx.Int s.ckpt_ring_evictions);
             ("batch_time_s", Obs.Jsonx.Float t_b);
             ("stream_time_s", Obs.Jsonx.Float t_s);
             ("parity", Obs.Jsonx.Bool true) ]
         :: !parity_rows)
    [ "level-hash"; "fast-fair"; "cceh" ];
  print_endline line;
  (* Part 2 - peak memory and throughput at scale, on the YCSB-A traffic
     stream with the sampling default `witcher run --stream` applies at
     this op count. Each engine runs in a forked child so the parent can
     read the child's own GC high-water mark: top_heap_words is
     process-monotonic, so A/B in one process would let the first run's
     peak mask the second's. The batch engine gets its checkpoint stride
     opened up to ~n/64 - at 100k ops the default stride of 32 would
     materialize thousands of full pool snapshots; the streaming engine
     runs the identical stride but keeps only its 8-deep ring. *)
  let sample_stride = max 1 (stream_perf_ops / 1000) in
  let perf_cfg =
    let tc =
      match W.Traffic.of_name "ycsb-a" with
      | Some t -> { t with W.Traffic.n_ops = stream_perf_ops }
      | None -> failwith "bench stream: ycsb-a traffic preset missing"
    in
    { W.Engine.default_cfg with
      workload = { W.Workload.default with n_ops = stream_perf_ops };
      traffic = Some tc;
      crash = { W.Crash_gen.default_cfg with max_images = stream_max_images };
      prune = Prune.Policy.Sample sample_stride;
      ckpt_stride =
        max W.Engine.default_cfg.ckpt_stride (stream_perf_ops / 64) }
  in
  let measure name f =
    flush stdout;
    let r_fd, w_fd = Unix.pipe () in
    match Unix.fork () with
    | 0 ->
      Unix.close r_fd;
      let r, wall = timed f in
      let st = Gc.quick_stat () in
      let oc = Unix.out_channel_of_descr w_fd in
      Printf.fprintf oc "%d %d %f %d %d %d %d\n" st.Gc.top_heap_words
        (r : W.Engine.result).peak_live_words wall r.n_mismatch r.n_clusters
        r.images_generated r.images_tested;
      flush oc;
      exit 0
    | pid ->
      Unix.close w_fd;
      let ic = Unix.in_channel_of_descr r_fd in
      let payload =
        try Some (input_line ic) with End_of_file -> None
      in
      close_in ic;
      let _, status = Unix.waitpid [] pid in
      (match status, payload with
       | Unix.WEXITED 0, Some line ->
         Scanf.sscanf line "%d %d %f %d %d %d %d"
           (fun top live wall m cl gen tst -> (top, live, wall, m, cl, gen, tst))
       | _ ->
         failwith
           (Printf.sprintf
              "bench stream: %s child at %d ops did not complete" name
              stream_perf_ops))
  in
  let e = Option.get (R.find "level-hash") in
  Printf.printf
    "\nPeak memory / throughput on level-hash, ycsb-a traffic, %d ops \
     (Sample %d, max %d images, forked children):\n\n"
    stream_perf_ops sample_stride stream_max_images;
  let b_top, b_live, b_wall, b_m, b_cl, b_gen, b_tst =
    measure "batch" (fun () -> W.Engine.run ~cfg:perf_cfg (e.buggy ()))
  in
  let s_top, s_live, s_wall, s_m, s_cl, s_gen, s_tst =
    measure "stream" (fun () -> W.Engine.run_stream ~cfg:perf_cfg (e.buggy ()))
  in
  if (b_m, b_cl, b_gen, b_tst) <> (s_m, s_cl, s_gen, s_tst) then
    failwith
      (Printf.sprintf
         "bench stream: verdict divergence at %d ops (batch: %d mismatch \
          %d clusters %d gen %d tested; stream: %d mismatch %d clusters \
          %d gen %d tested)"
         stream_perf_ops b_m b_cl b_gen b_tst s_m s_cl s_gen s_tst);
  let mb w = float_of_int (w * 8) /. 1024. /. 1024. in
  Printf.printf "%-8s | %14s | %14s | %8s | %9s | %8s %8s\n"
    "engine" "peak-live(MB)" "top-heap(MB)" "wall(s)" "ops/s" "#img-tst"
    "#mismtch";
  print_endline line;
  Printf.printf "%-8s | %14.1f | %14.1f | %8.2f | %9.0f | %8d %8d\n"
    "batch" (mb b_live) (mb b_top) b_wall
    (float_of_int stream_perf_ops /. b_wall) b_tst b_m;
  Printf.printf "%-8s | %14.1f | %14.1f | %8.2f | %9.0f | %8d %8d\n"
    "stream" (mb s_live) (mb s_top) s_wall
    (float_of_int stream_perf_ops /. s_wall) s_tst s_m;
  print_endline line;
  let live_ratio =
    if b_live = 0 then 1. else float_of_int s_live /. float_of_int b_live
  in
  let thr_ratio = if s_wall = 0. then 1. else b_wall /. s_wall in
  let live_ok = live_ratio <= 0.35 and thr_ok = thr_ratio >= 0.9 in
  Printf.printf
    "\nstream peak live heap = %.1f%% of batch (target <= 35%%: %s); \
     throughput = %.2fx batch (target >= 0.9x: %s)\n"
    (100. *. live_ratio)
    (if live_ok then "ok" else "MISS")
    thr_ratio
    (if thr_ok then "ok" else "MISS");
  (* The memory/throughput targets are the acceptance bar at the full
     100k-op scale; the shrunk bench-stream CI config (where the window
     is a large fraction of the whole trace) only reports them. *)
  if stream_perf_ops >= 100_000 && not (live_ok && thr_ok) then
    failwith
      (Printf.sprintf
         "bench stream: targets missed at %d ops (live ratio %.2f, \
          throughput ratio %.2f)"
         stream_perf_ops live_ratio thr_ratio);
  json_sections :=
    ( "stream",
      Obs.Jsonx.Obj
        [ ("parity", Obs.Jsonx.List (List.rev !parity_rows));
          ("perf",
           Obs.Jsonx.Obj
             [ ("store", Obs.Jsonx.Str "level-hash");
               ("traffic", Obs.Jsonx.Str "ycsb-a");
               ("n_ops", Obs.Jsonx.Int stream_perf_ops);
               ("sample_stride", Obs.Jsonx.Int sample_stride);
               ("max_images", Obs.Jsonx.Int stream_max_images);
               ("batch_peak_live_mb", Obs.Jsonx.Float (mb b_live));
               ("batch_top_heap_mb", Obs.Jsonx.Float (mb b_top));
               ("batch_wall_s", Obs.Jsonx.Float b_wall);
               ("stream_peak_live_mb", Obs.Jsonx.Float (mb s_live));
               ("stream_top_heap_mb", Obs.Jsonx.Float (mb s_top));
               ("stream_wall_s", Obs.Jsonx.Float s_wall);
               ("live_ratio", Obs.Jsonx.Float live_ratio);
               ("throughput_ratio", Obs.Jsonx.Float thr_ratio);
               ("live_target_met", Obs.Jsonx.Bool live_ok);
               ("throughput_target_met", Obs.Jsonx.Bool thr_ok) ]) ] )
    :: !json_sections

(* --- Bechamel micro-benchmarks: pipeline stage costs --- *)

let micro () =
  section "Pipeline stage micro-benchmarks (Bechamel)";
  let open Bechamel in
  let e = Option.get (R.find "level-hash") in
  let small_ops =
    W.Workload.generate (W.Workload.no_scan { W.Workload.default with n_ops = 50 })
  in
  let rec_ = W.Driver.record (e.buggy ()) small_ops in
  let conds = W.Infer.infer rec_.trace in
  let t_record =
    Test.make ~name:"record-trace"
      (Staged.stage (fun () -> ignore (W.Driver.record (e.buggy ()) small_ops)))
  in
  let t_infer =
    Test.make ~name:"infer-conditions"
      (Staged.stage (fun () -> ignore (W.Infer.infer rec_.trace)))
  in
  let t_perf =
    Test.make ~name:"perf-detect"
      (Staged.stage (fun () -> ignore (W.Perf.detect rec_.trace)))
  in
  let t_gen =
    Test.make ~name:"crash-gen+equiv"
      (Staged.stage (fun () ->
           let store = e.buggy () in
           let checker =
             W.Equiv.create store ~ops:rec_.ops ~committed:rec_.outputs
           in
           ignore
             (W.Crash_gen.generate
                ~cfg:{ W.Crash_gen.default_cfg with max_images = 50 }
                ~trace:rec_.trace ~conds ~pool_size:rec_.pool_size
                ~on_image:(fun img ->
                    ignore (W.Equiv.check checker ~img:img.img ~crash_op:img.crash_op);
                    `Continue)
                ())))
  in
  let grouped =
    Test.make_grouped ~name:"witcher" [ t_record; t_infer; t_perf; t_gen ]
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] grouped in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0
      ~predictors:[| Measure.run |]
  in
  let res = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun name v ->
       match Analyze.OLS.estimates v with
       | Some (est :: _) ->
         Printf.printf "  %-28s %12.0f ns/run (%.3f ms)\n" name est (est /. 1e6)
       | _ -> Printf.printf "  %-28s (no estimate)\n" name)
    res

let sections =
  [ "table1", table1; "table2", table2; "table3", table3; "table4", table4;
    "table5", table5; "fig4", fig4; "random", random_baseline;
    "compare", compare_tools; "nonkv", nonkv; "prune", prune;
    "stream", stream; "micro", micro ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let json = List.mem "--json" args in
  let args = List.filter (fun a -> a <> "--" && a <> "--json") args in
  let chosen =
    if args = [] || List.mem "all" args then List.map fst sections else args
  in
  Printf.printf "Witcher reproduction benchmarks (%d-op workloads; set \
                 WITCHER_OPS to change)\n" n_ops;
  List.iter
    (fun name ->
       match List.assoc_opt name sections with
       | Some f -> f ()
       | None -> Printf.printf "unknown section %S\n" name)
    chosen;
  (* `bench/main.exe all --json` (or any section list with --json) dumps
     the machine-readable rows the sections collected into BENCH.json. *)
  if json then begin
    (* Merge with an existing BENCH.json rather than clobbering it, so
       `bench/main.exe stream --json` and `bench/main.exe prune --json`
       accumulate their sections into one document. Sections re-run now
       replace their previous rows. *)
    let prior =
      if Sys.file_exists "BENCH.json" then
        try
          let ic = open_in_bin "BENCH.json" in
          let len = in_channel_length ic in
          let s = really_input_string ic len in
          close_in ic;
          match Obs.Jsonx.of_string s with
          | Ok (Obs.Jsonx.Obj kvs) ->
            List.filter
              (fun (k, _) ->
                 k <> "n_ops" && k <> "max_images" && k <> "sections"
                 && not (List.mem_assoc k !json_sections))
              kvs
          | _ -> []
        with _ -> []
      else []
    in
    let body = prior @ List.rev !json_sections in
    let doc =
      Obs.Jsonx.Obj
        (("n_ops", Obs.Jsonx.Int n_ops)
         :: ("max_images", Obs.Jsonx.Int max_images)
         :: ("sections", Obs.Jsonx.List
               (List.map (fun (k, _) -> Obs.Jsonx.Str k) body))
         :: body)
    in
    let oc = open_out "BENCH.json" in
    output_string oc (Obs.Jsonx.to_string doc);
    output_char oc '\n';
    close_out oc;
    print_endline "\nwrote BENCH.json"
  end
