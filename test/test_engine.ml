(* End-to-end pipeline tests: the headline soundness properties of the
   reproduction.

   - No false positives: every *fixed* store variant passes the full
     pipeline with zero correctness bugs (durable linearizability holds
     for every generated crash image).
   - Detection: every *buggy* variant's seeded defect classes are found.
   - Performance detection, workload determinism, oracles, clustering,
     and the 7.5/7.6 baselines. *)

module W = Witcher
module R = Stores.Registry

let cfg ~n_ops =
  { W.Engine.default_cfg with
    workload = { W.Workload.default with n_ops };
    crash = { W.Crash_gen.default_cfg with max_images = 1500 } }

let fixed_clean_case (e : R.entry) =
  Alcotest.test_case (e.name ^ " fixed is durable-linearizable") `Slow
    (fun () ->
       let r = W.Engine.run ~cfg:(cfg ~n_ops:120) (e.fixed ()) in
       Alcotest.(check int) "C-O" 0 r.c_o;
       Alcotest.(check int) "C-A" 0 r.c_a;
       Alcotest.(check int) "mismatches" 0 r.n_mismatch)

let buggy_detected_case (e : R.entry) =
  Alcotest.test_case (e.name ^ " seeded bugs detected") `Slow (fun () ->
      let r = W.Engine.run ~cfg:(cfg ~n_ops:150) (e.buggy ()) in
      if e.paper_bug_ids <> [] then
        Alcotest.(check bool)
          (Printf.sprintf "found correctness bugs (got %d C-O, %d C-A)"
             r.c_o r.c_a)
          true
          (r.c_o + r.c_a > 0)
      else begin
        (* clean programs (wort, c-tree, redis, p-queue) must stay clean *)
        Alcotest.(check int) "C-O" 0 r.c_o;
        Alcotest.(check int) "C-A" 0 r.c_a
      end)

let detection_suites =
  List.concat_map
    (fun (e : R.entry) -> [ buggy_detected_case e; fixed_clean_case e ])
    R.all

(* Bug-class checks on the flagship stores. *)
let test_level_hash_classes () =
  let r = W.Engine.run ~cfg:(cfg ~n_ops:150) (Stores.Level_hash.buggy ()) in
  let has_site f =
    List.exists (fun (rep : W.Cluster.report) -> f rep) r.site_pairs
  in
  Alcotest.(check bool) "Figure 1(b): token-before-slot ordering" true
    (has_site (fun rep ->
         rep.kind = W.Cluster.C_ordering
         && rep.watch_sid = "lh:insert.token"));
  Alcotest.(check bool) "Figure 1(c): two-token atomicity" true
    (has_site (fun rep ->
         rep.kind = W.Cluster.C_atomicity
         && (rep.watch_sid = "lh:update.clear_old"
             || rep.watch_sid = "lh:update.set_new")));
  Alcotest.(check bool) "extra flush reported" true
    (W.Perf.n_bugs r.perf.p_efl > 0)

let test_memcached_stats_p_u () =
  let r = W.Engine.run ~cfg:(cfg ~n_ops:200) (Stores.Memcache_like.buggy ()) in
  Alcotest.(check bool)
    (Printf.sprintf "many unpersisted stat counters (got %d)"
       (W.Perf.n_bugs r.perf.p_u))
    true
    (W.Perf.n_bugs r.perf.p_u >= 15)

let test_uaf_detected () =
  let r = W.Engine.run ~cfg:(cfg ~n_ops:150) (Stores.Hashmap_tx.buggy ()) in
  Alcotest.(check bool) "use-after-free found" true (r.c_o + r.c_a > 0)

(* Oracle construction: rolled-back oracle differs from committed exactly
   when the removed op mattered. *)
let test_rolled_back_oracle () =
  let e = Option.get (R.find "level-hash") in
  let module S = (val e.fixed ()) in
  let ops = [ W.Op.Insert (1, "aaa"); W.Op.Query 1; W.Op.Query 2 ] in
  let r = W.Driver.record (module S) ops in
  let checker = W.Equiv.create (module S) ~ops:r.ops ~committed:r.outputs in
  ignore checker;
  let rb = W.Driver.run_quiet (module S) [ W.Op.Query 1; W.Op.Query 2 ] in
  Alcotest.(check string) "query 1 rolled back" "notfound"
    (W.Output.to_string rb.(0))

(* Workload generation: deterministic, biased toward used keys. *)
let test_workload_determinism () =
  let a = W.Workload.generate W.Workload.default in
  let b = W.Workload.generate W.Workload.default in
  Alcotest.(check int) "same length" (List.length a) (List.length b);
  List.iter2
    (fun x y -> Alcotest.(check string) "same op" (W.Op.desc x) (W.Op.desc y))
    a b;
  let c = W.Workload.generate { W.Workload.default with seed = 7 } in
  Alcotest.(check bool) "different seed differs" true
    (List.exists2 (fun x y -> W.Op.desc x <> W.Op.desc y) a c)

let test_workload_bias () =
  let ops = W.Workload.generate { W.Workload.default with n_ops = 500 } in
  let inserted = Hashtbl.create 64 in
  let hits = ref 0 and lookups = ref 0 in
  List.iter
    (fun op ->
       match op with
       | W.Op.Insert (k, _) -> Hashtbl.replace inserted k ()
       | W.Op.Query k | W.Op.Delete k | W.Op.Update (k, _) | W.Op.Scan (k, _) ->
         incr lookups;
         if Hashtbl.mem inserted k then incr hits)
    ops;
  Alcotest.(check bool) "most non-inserts touch existing keys" true
    (float_of_int !hits /. float_of_int (max 1 !lookups) > 0.7)

(* Output equivalence ignores representation, compares values. *)
let test_output_equal () =
  Alcotest.(check bool) "found eq" true
    (W.Output.equal (W.Output.Found "x") (W.Output.Found "x"));
  Alcotest.(check bool) "crashed never equal" false
    (W.Output.equal (W.Output.Crashed "a") (W.Output.Crashed "a"));
  Alcotest.(check bool) "vals" true
    (W.Output.equal (W.Output.Vals [ "a"; "b" ]) (W.Output.Vals [ "a"; "b" ]))

(* Baselines (7.6): the Agamotto-style TX checker sees btree's missing
   log; the PMTest-style annotation flags the benign redis store that
   Witcher correctly ignores. *)
let test_agamotto_missing_log () =
  let module S = (val Stores.Btree_tx.buggy ()) in
  let ops =
    W.Workload.generate { W.Workload.default with n_ops = 150 }
  in
  let r = W.Driver.record (module S) ops in
  let aga = W.Baselines.agamotto r.trace in
  Alcotest.(check bool) "missing log seen" true (aga.missing_log_sites <> [])

let test_pmtest_redis_false_positive () =
  let module S = (val Stores.Redis_like.make ()) in
  let ops =
    W.Workload.generate (W.Workload.no_scan { W.Workload.default with n_ops = 60 })
  in
  let r = W.Driver.record (module S) ops in
  let viol =
    W.Baselines.pmtest r.trace ~pool_size:r.pool_size
      ~annotations:[ W.Baselines.In_tx { sid = "redis:init.zero_root" } ]
  in
  Alcotest.(check bool) "annotation fires (false positive)" true (viol <> []);
  let res = W.Engine.run ~cfg:(cfg ~n_ops:60) (Stores.Redis_like.make ()) in
  Alcotest.(check int) "witcher prunes it" 0 (res.c_o + res.c_a)

(* Performance detectors on a hand trace. *)
let test_perf_detectors () =
  let open Nvm in
  let ctx = Ctx.create ~mode:Record (Pmem.create 4096) in
  Ctx.op_begin ctx ~index:0 ~desc:"t";
  (* P-EFE: fence with no flush *)
  Ctx.fence ctx ~sid:"efe";
  (* P-EFL: flush twice *)
  Ctx.write_u64 ctx ~sid:"w" 128 Tv.one;
  Ctx.flush ctx ~sid:"fl1" 128;
  Ctx.flush ctx ~sid:"fl2" 128;
  Ctx.fence ctx ~sid:"fe";
  (* P-U: never flushed *)
  Ctx.write_u64 ctx ~sid:"pu" 512 Tv.one;
  let perf = W.Perf.detect (Ctx.trace ctx) in
  Alcotest.(check int) "P-EFE" 1 (W.Perf.n_bugs perf.p_efe);
  Alcotest.(check int) "P-EFL" 1 (W.Perf.n_bugs perf.p_efl);
  Alcotest.(check int) "P-U" 1 (W.Perf.n_bugs perf.p_u)

(* qcheck: for the fixed level-hash, every crash image Witcher generates
   passes output equivalence — the durable-linearizability property, at
   random seeds. *)
let prop_fixed_durable =
  QCheck2.Test.make ~name:"fixed level-hash durable-linearizable (seeds)"
    ~count:6
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
       let c =
         { W.Engine.default_cfg with
           workload = { W.Workload.default with n_ops = 60; seed };
           crash = { W.Crash_gen.default_cfg with max_images = 400 } }
       in
       let r = W.Engine.run ~cfg:c (Stores.Level_hash.fixed ()) in
       r.n_mismatch = 0)

let prop_buggy_found =
  QCheck2.Test.make ~name:"buggy level-hash caught (seeds)" ~count:6
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
       let c =
         { W.Engine.default_cfg with
           workload = { W.Workload.default with n_ops = 80; seed };
           crash = { W.Crash_gen.default_cfg with max_images = 600 } }
       in
       let r = W.Engine.run ~cfg:c (Stores.Level_hash.buggy ()) in
       r.c_o + r.c_a > 0)

(* first_diff reporting: when the resumed run diverges from the two
   oracles at different indices, the earliest divergence from either is
   the one reported (the pre-fix code looked for an index diverging from
   both at once and fell through to the start of the suffix). *)
let test_first_diff_earliest () =
  let open W.Output in
  let committed = [| Ok; Found "a"; Ok; Found "c" |] in
  let rolled_back = [| Ok; Ok; Ok; Found "d" |] in
  (* diverges from rolled-back at suffix index 1, from committed at 3 *)
  let got = [| Ok; Found "a"; Ok; Found "x" |] in
  match
    W.Equiv.verdict_of_outputs ~crash_op:5 ~got
      ~committed:(fun i -> committed.(i))
      ~rolled_back:(fun i -> rolled_back.(i))
  with
  | W.Equiv.Consistent -> Alcotest.fail "expected inconsistent"
  | W.Equiv.Inconsistent d ->
    Alcotest.(check int) "earliest divergence (crash_op 5 + idx 1 + 1)" 7
      d.first_diff;
    Alcotest.(check bool) "got at that index" true
      (W.Output.equal d.got (Found "a"))

(* The streaming checker must reach exactly the verdict the full-replay
   reference does, image by image, on a real buggy store. *)
let test_streaming_matches_reference () =
  let e = Option.get (R.find "level-hash") in
  let module S = (val e.buggy ()) in
  let wl = W.Workload.no_scan { W.Workload.default with n_ops = 60 } in
  let r = W.Driver.record (module S) (W.Workload.generate wl) in
  let conds = W.Infer.infer r.trace in
  let fuel = W.Engine.default_cfg.fuel in
  let checker =
    W.Equiv.create ~fuel (module S) ~ops:r.ops ~committed:r.outputs
  in
  let n = ref 0 and n_bad = ref 0 in
  ignore
    (W.Crash_gen.generate
       ~cfg:{ W.Crash_gen.default_cfg with max_images = 200 }
       ~trace:r.trace ~conds ~pool_size:r.pool_size
       ~on_image:(fun (img : W.Crash_gen.image) ->
           let k = img.crash_op in
           (* reference: full replay from a detached flat copy *)
           let got =
             W.Driver.resume (module S) ~image:(Nvm.Pmem.copy img.img)
               ~ops:r.ops ~from_op:k ~fuel
           in
           let rb = W.Equiv.rolled_back_oracle checker k in
           let reference =
             W.Equiv.verdict_of_outputs ~crash_op:k ~got
               ~committed:(fun i -> r.outputs.(k + i))
               ~rolled_back:(fun i -> rb.(i))
           in
           let streamed = W.Equiv.check checker ~img:img.img ~crash_op:k in
           incr n;
           (match reference, streamed with
            | W.Equiv.Consistent, W.Equiv.Consistent -> ()
            | W.Equiv.Inconsistent a, W.Equiv.Inconsistent b ->
              incr n_bad;
              Alcotest.(check int) "first_diff agrees" a.first_diff b.first_diff
            | _ -> Alcotest.fail "streaming and reference verdicts disagree");
           `Continue)
       ());
  Alcotest.(check bool) "covered consistent and inconsistent images" true
    (!n > 50 && !n_bad > 0 && !n_bad < !n)

(* qcheck: the optimized checker (lazy rolled-back oracles +
   checkpointed oracle construction + digest-keyed verdict memo) reaches
   exactly the verdict the reference [Equiv.verdict_of_outputs] computes
   on fully materialized outputs — and so does a checker with every
   optimization disabled — for random workloads on every registry
   store. *)
let prop_optimized_checker_parity =
  QCheck2.Test.make
    ~name:"optimized checker = reference, all stores (seeds)" ~count:3
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
       List.for_all
         (fun (e : R.entry) ->
            let module S = (val e.buggy ()) in
            let wl =
              W.Workload.no_scan { W.Workload.default with n_ops = 30; seed }
            in
            let rec_ =
              W.Driver.record ~ckpt_stride:8 (module S)
                (W.Workload.generate wl)
            in
            let conds = W.Infer.infer rec_.trace in
            let fuel = W.Engine.default_cfg.fuel in
            let opt =
              W.Equiv.create ~fuel ~checkpoints:rec_.checkpoints (module S)
                ~ops:rec_.ops ~committed:rec_.outputs
            in
            let plain =
              W.Equiv.create ~fuel ~lazy_oracle:false ~memo:false (module S)
                ~ops:rec_.ops ~committed:rec_.outputs
            in
            let ok = ref true in
            ignore
              (W.Crash_gen.generate
                 ~cfg:{ W.Crash_gen.default_cfg with max_images = 100 }
                 ~trace:rec_.trace ~conds ~pool_size:rec_.pool_size
                 ~on_image:(fun (img : W.Crash_gen.image) ->
                     let k = img.crash_op in
                     let got =
                       W.Driver.resume (module S)
                         ~image:(Nvm.Pmem.copy img.img) ~ops:rec_.ops
                         ~from_op:k ~fuel
                     in
                     let img_copy = Nvm.Pmem.copy img.img in
                  let rb = W.Equiv.rolled_back_oracle plain k in
                     let reference =
                       W.Equiv.verdict_of_outputs ~crash_op:k ~got
                         ~committed:(fun i -> rec_.outputs.(k + i))
                         ~rolled_back:(fun i -> rb.(i))
                     in
                     let v_opt =
                       W.Equiv.check ~digest:img.digest opt ~img:img.img
                         ~crash_op:k
                     in
                     let v_plain =
                       W.Equiv.check plain ~img:img_copy ~crash_op:k
                     in
                     let key = function
                       | W.Equiv.Consistent -> -1
                       | W.Equiv.Inconsistent d -> d.first_diff
                     in
                     if key reference <> key v_opt
                        || key reference <> key v_plain
                     then ok := false;
                     if !ok then `Continue else `Stop)
                 ());
            !ok)
         R.all)

(* qcheck: fence-batched checking is invisible in the verdicts. Three
   checkers over the identical image stream — a plain per-image one
   (every optimization off), the optimized one (checkpoints + lazy
   oracles + memo), and the optimized one with fence batching and
   verdict inheritance on top — must all reach exactly the verdict the
   reference [Equiv.verdict_of_outputs] computes on fully materialized
   outputs, for random workloads on every registry store. *)
let prop_batched_checker_parity =
  QCheck2.Test.make
    ~name:"fence-batched checker = per-image = reference, all stores (seeds)"
    ~count:3
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
       List.for_all
         (fun (e : R.entry) ->
            let module S = (val e.buggy ()) in
            let wl =
              W.Workload.no_scan { W.Workload.default with n_ops = 30; seed }
            in
            let rec_ =
              W.Driver.record ~ckpt_stride:8 (module S)
                (W.Workload.generate wl)
            in
            let conds = W.Infer.infer rec_.trace in
            let fuel = W.Engine.default_cfg.fuel in
            let plain =
              W.Equiv.create ~fuel ~lazy_oracle:false ~memo:false (module S)
                ~ops:rec_.ops ~committed:rec_.outputs
            in
            let batched =
              W.Equiv.create ~fuel ~checkpoints:rec_.checkpoints (module S)
                ~ops:rec_.ops ~committed:rec_.outputs
            in
            W.Equiv.enable_batch batched ~addr_len:(fun tid ->
                ( Nvm.Trace.addr_at rec_.trace tid,
                  Nvm.Trace.len_at rec_.trace tid ));
            let ok = ref true in
            ignore
              (W.Crash_gen.generate
                 ~cfg:{ W.Crash_gen.default_cfg with max_images = 100 }
                 ~trace:rec_.trace ~conds ~pool_size:rec_.pool_size
                 ~on_image:(fun (img : W.Crash_gen.image) ->
                     let k = img.crash_op in
                     let got =
                       W.Driver.resume (module S)
                         ~image:(Nvm.Pmem.copy img.img) ~ops:rec_.ops
                         ~from_op:k ~fuel
                     in
                     let img_copy = Nvm.Pmem.copy img.img in
                     let rb = W.Equiv.rolled_back_oracle plain k in
                     let reference =
                       W.Equiv.verdict_of_outputs ~crash_op:k ~got
                         ~committed:(fun i -> rec_.outputs.(k + i))
                         ~rolled_back:(fun i -> rb.(i))
                     in
                     let v_batched =
                       W.Equiv.check ~digest:img.digest ~fence:img.crash_tid
                         ~extras:img.extras batched ~img:img.img ~crash_op:k
                     in
                     let v_plain =
                       W.Equiv.check plain ~img:img_copy ~crash_op:k
                     in
                     let key = function
                       | W.Equiv.Consistent -> -1
                       | W.Equiv.Inconsistent d -> d.first_diff
                     in
                     if key reference <> key v_batched
                        || key reference <> key v_plain
                     then ok := false;
                     if !ok then `Continue else `Stop)
                 ());
            W.Equiv.flush_batch batched;
            !ok)
         R.all)

(* qcheck: full-engine parity — a batch-on run and a batch-off run must
   report identical mismatches, root causes and path-level clusters,
   under both exhaustive and representative pruning. *)
let prop_batch_engine_parity =
  QCheck2.Test.make
    ~name:"engine batch on = batch off (both prune policies, seeds)"
    ~count:2
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
       let ckey (r : W.Cluster.report) =
         (r.kind, r.op_desc, r.path_hash, r.watch_sid, r.req_sid, r.rule)
       in
       let keys (r : W.Engine.result) =
         List.sort_uniq compare (List.map ckey r.all_clusters)
       in
       List.for_all
         (fun (e : R.entry) ->
            List.for_all
              (fun prune ->
                 let c batch =
                   { W.Engine.default_cfg with
                     workload = { W.Workload.default with n_ops = 30; seed };
                     crash = { W.Crash_gen.default_cfg with max_images = 100 };
                     ckpt_stride = 8; prune; batch }
                 in
                 let a = W.Engine.run ~cfg:(c true) (e.buggy ()) in
                 let b = W.Engine.run ~cfg:(c false) (e.buggy ()) in
                 a.n_mismatch = b.n_mismatch && a.c_o = b.c_o
                 && a.c_a = b.c_a && keys a = keys b)
              [ Prune.Policy.Exhaustive; Prune.Policy.Representative ])
         R.all)

(* Recovery idempotence: opening a crash image twice must not change the
   observable state a third open sees. *)
let test_recovery_idempotent () =
  List.iter
    (fun name ->
       let e = Option.get (R.find name) in
       let module S = (val e.fixed ()) in
       let ops =
         W.Workload.generate
           (W.Workload.no_scan { W.Workload.default with n_ops = 60 })
       in
       let r = W.Driver.record (module S) ops in
       let img = Nvm.Pmem.of_snapshot r.final_image in
       let open_once () =
         let ctx = Nvm.Ctx.create ~mode:Nvm.Ctx.Quiet ~fuel:1_000_000 img in
         ignore (S.open_ ctx)
       in
       open_once ();
       let snap1 = Nvm.Pmem.snapshot img in
       open_once ();
       let snap2 = Nvm.Pmem.snapshot img in
       Alcotest.(check bool) (name ^ " recover twice = once") true
         (String.equal snap1 snap2))
    [ "level-hash"; "cceh"; "fast-fair"; "b-tree"; "hashmap-tx" ]

(* Clustering: many failing images with one root cause collapse. *)
let test_clustering_collapses () =
  let r = W.Engine.run ~cfg:(cfg ~n_ops:150) (Stores.Level_hash.buggy ()) in
  Alcotest.(check bool) "mismatches >= clusters" true
    (r.n_mismatch >= r.n_clusters);
  Alcotest.(check bool) "clusters >= root causes" true
    (r.n_clusters >= List.length r.bug_reports);
  Alcotest.(check bool) "root causes > 0" true (r.bug_reports <> [])

(* Report formatting must never raise and must mention the store name. *)
let test_report_smoke () =
  let r = W.Engine.run ~cfg:(cfg ~n_ops:60) (Stores.Cceh.buggy ()) in
  let row = W.Report.result_row r in
  Alcotest.(check bool) "row mentions store" true
    (String.length row > 0
     && String.sub row 0 4 = "cceh");
  let t1 = W.Report.table1 () and t2 = W.Report.table2 () in
  Alcotest.(check bool) "tables render" true
    (String.length t1 > 100 && String.length t2 > 100);
  ignore (W.Report.bug_list r)

(* The final committed image resumed from scratch equals the committed
   outputs: equivalence checking of a "crash after the last op" state. *)
let test_final_image_consistent () =
  let e = Option.get (R.find "fast-fair") in
  let module S = (val e.fixed ()) in
  let ops = W.Workload.generate { W.Workload.default with n_ops = 100 } in
  let r = W.Driver.record (module S) ops in
  (* replay only guaranteed stores (the real durable state), then re-run
     read-only queries for every key and compare to a fresh run *)
  let img = Nvm.Pmem.of_snapshot r.final_image in
  let checker = W.Equiv.create (module S) ~ops:r.ops ~committed:r.outputs in
  match W.Equiv.check checker ~img ~crash_op:(Array.length r.ops) with
  | W.Equiv.Consistent -> ()
  | W.Equiv.Inconsistent _ -> Alcotest.fail "final image diverged"

(* Random exploration runs and respects feasibility (no crash). *)
let test_random_explore_smoke () =
  let e = Option.get (R.find "level-hash") in
  let module S = (val e.fixed ()) in
  let ops =
    W.Workload.generate (W.Workload.no_scan { W.Workload.default with n_ops = 30 })
  in
  let r = W.Driver.record (module S) ops in
  let checker = W.Equiv.create (module S) ~ops:r.ops ~committed:r.outputs in
  let res =
    W.Random_explore.run ~trace:r.trace ~pool_size:r.pool_size
      ~samples_per_fence:1
      ~check:(fun ~img ~crash_op -> W.Equiv.check checker ~img ~crash_op)
      ()
  in
  Alcotest.(check bool) "sampled" true (res.sampled > 0);
  Alcotest.(check int) "fixed store never diverges, even at random states"
    0 res.mismatches

(* Yat estimate is monotone and spikes with workload size. *)
let test_yat_estimate_monotone () =
  let e = Option.get (R.find "level-hash") in
  let module S = (val e.buggy ()) in
  let ops =
    W.Workload.generate (W.Workload.no_scan { W.Workload.default with n_ops = 120 })
  in
  let r = W.Driver.record (module S) ops in
  let series =
    W.Yat.estimate ~trace:r.trace ~pool_size:r.pool_size
      ~per_op_images:(Hashtbl.create 1) ~n_ops:120
  in
  let arr = series.yat_log10 in
  let ok = ref true in
  for i = 1 to Array.length arr - 1 do
    if arr.(i) < arr.(i - 1) -. 1e-9 then ok := false
  done;
  Alcotest.(check bool) "monotone cumulative" true !ok;
  Alcotest.(check bool) "nontrivial" true (arr.(Array.length arr - 1) > 1.0)

(* The CCEH fixed variant's directory recovery: force a half-rewritten
   chunk and check recovery repoints it to the coarse segment. *)
let test_cceh_recovery_via_pipeline () =
  let r =
    W.Engine.run
      ~cfg:
        { W.Engine.default_cfg with
          workload =
            W.Workload.no_scan
              { W.Workload.default with n_ops = 250; key_space = 300 } }
      (Stores.Cceh.fixed ())
  in
  Alcotest.(check int) "dense cceh fixed clean" 0 (r.c_o + r.c_a)

(* Replay budget. A synthetic store whose accesses per call are set by
   the test: creation, recovery and op [k] each read [cost] words
   ([max_int] loops until the fuel runs dry), and [fail k] may raise
   instead. [spent] counts the accesses of the latest call. *)
let spent = ref 0

let fake_store ?(create_cost = 1) ?(open_cost = 1)
    ?(fail = fun (_ : int) -> ()) ~(op_cost : int -> int) ()
  : W.Store_intf.instance =
  (module struct
    let name = "fake"
    let pool_size = 4096
    let supports_scan = false
    type t = Nvm.Ctx.t
    let touch ctx cost =
      spent := 0;
      while !spent < cost do
        incr spent;
        ignore (Nvm.Ctx.read_u64 ctx ~sid:"fake" 0)
      done
    let create ctx = touch ctx create_cost; ctx
    let open_ ctx = touch ctx open_cost; ctx
    let exec ctx op =
      let k = match op with W.Op.Query k -> k | _ -> 0 in
      fail k;
      touch ctx (op_cost k);
      W.Output.Ok
  end)

let queries n = Array.init n (fun i -> W.Op.Query (i + 1))

let replay ?(fuel = 1000) store ops =
  W.Driver.resume store ~image:(Nvm.Pmem.create 4096) ~ops ~from_op:0 ~fuel

let outputs_str outs =
  String.concat " " (Array.to_list (Array.map W.Output.to_string outs))

(* Every op and the recovery fit the per-op budget while the suffix as a
   whole makes 10x that many accesses: the replay completes with the
   committed outputs instead of reading as a livelock. *)
let test_budget_per_op () =
  let store = fake_store ~open_cost:900 ~op_cost:(fun _ -> 900) () in
  let ops = queries 12 in
  Alcotest.(check string) "suffix replays in full"
    (outputs_str (Array.make 12 W.Output.Ok))
    (outputs_str (replay store ops))

(* An op that loops is cut after at most one budget of its own accesses
   and reads [livelock] from that op on; a looping recovery is cut the
   same way before any op runs. The checker counts each such replay. *)
let test_budget_cuts_livelock () =
  let crashed = W.Output.Crashed W.Driver.livelock in
  let ok = W.Output.Ok in
  let looping =
    fake_store ~op_cost:(fun k -> if k = 3 then max_int else 5) ()
  in
  Alcotest.(check string) "op 3 livelocks"
    (outputs_str [| ok; ok; crashed; crashed; crashed |])
    (outputs_str (replay looping (queries 5)));
  Alcotest.(check bool)
    (Printf.sprintf "op 3 cut within its budget (%d accesses)" !spent)
    true (!spent <= 1000);
  let stuck = fake_store ~open_cost:max_int ~op_cost:(fun _ -> 5) () in
  Alcotest.(check string) "recovery livelocks"
    (outputs_str (Array.make 4 crashed))
    (outputs_str (replay stuck (queries 4)));
  Alcotest.(check bool)
    (Printf.sprintf "recovery cut within its budget (%d accesses)" !spent)
    true (!spent <= 1000);
  let livelocks () =
    Obs.Metrics.counter_value
      (Obs.Metrics.snapshot Obs.Metrics.default)
      "equiv.livelocks"
  in
  let before = livelocks () in
  let ops = queries 5 in
  let checker =
    W.Equiv.create ~fuel:1000 looping ~ops ~committed:(Array.make 5 ok)
  in
  (match W.Equiv.check checker ~img:(Nvm.Pmem.create 4096) ~crash_op:0 with
   | W.Equiv.Inconsistent d ->
     Alcotest.(check string) "verdict got" (W.Output.to_string crashed)
       (W.Output.to_string d.got)
   | W.Equiv.Consistent -> Alcotest.fail "livelock judged consistent");
  Alcotest.(check int) "equiv.livelocks" 1 (livelocks () - before)

(* The budget's measure: after [Driver.exec], the context holds the
   access count of the costliest op, creation included. *)
let test_max_op_cost () =
  let measure ~create_cost costs =
    let store =
      fake_store ~create_cost ~op_cost:(fun k -> List.nth costs (k - 1)) ()
    in
    let module S = (val store) in
    let ctx = Nvm.Ctx.create ~mode:Nvm.Ctx.Record (Nvm.Pmem.create 4096) in
    W.Driver.exec (module S) ctx (queries (List.length costs))
      ~after_op:(fun _ _ -> ());
    Nvm.Ctx.max_op_cost ctx
  in
  Alcotest.(check int) "costliest op" 11 (measure ~create_cost:7 [ 3; 11; 5 ]);
  Alcotest.(check int) "creation counts" 20
    (measure ~create_cost:20 [ 3; 11; 5 ])

(* Only the failures a store can make visible become [Crashed] outputs; a
   harness failure propagates out of the replay. *)
let test_closed_failure_set () =
  let raising e =
    fake_store ~fail:(fun k -> if k = 2 then raise e) ~op_cost:(fun _ -> 1) ()
  in
  Alcotest.(check string) "Division_by_zero is a visible crash"
    "ok CRASHED:exception:Division_by_zero CRASHED:exception:Division_by_zero"
    (outputs_str (replay (raising Division_by_zero) (queries 3)));
  Alcotest.check_raises "Exit propagates" Exit (fun () ->
      ignore (replay (raising Exit) (queries 3)))

(* qcheck: resource limits never silently change a result. With the
   per-op replay budget at the default and at 16x the default, the
   engine finds the same bug keys, cluster keys and mismatch count on the
   stores whose replays run dry most often. *)
let prop_budget_insensitive =
  QCheck2.Test.make ~name:"replay budget insensitivity (stores, seeds)"
    ~count:3
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
       let summary fuel (e : R.entry) =
         let r =
           W.Engine.run
             ~cfg:
               { W.Engine.default_cfg with
                 workload = { W.Workload.default with n_ops = 60; seed };
                 fuel }
             (e.buggy ())
         in
         ( r.n_mismatch,
           List.sort_uniq compare
             (List.map
                (fun (c : W.Cluster.report) -> (c.kind, c.watch_sid, c.req_sid))
                r.site_pairs),
           List.sort_uniq compare
             (List.map
                (fun (c : W.Cluster.report) ->
                   (c.kind, c.op_desc, c.path_hash, c.watch_sid, c.req_sid,
                    c.rule))
                r.all_clusters) )
       in
       let fuel = W.Engine.default_cfg.fuel in
       List.for_all
         (fun name ->
            let e = Option.get (R.find name) in
            summary fuel e = summary (16 * fuel) e)
         [ "rb-tree"; "p-masstree"; "b-tree"; "fast-fair"; "level-hash";
           "cceh" ])

let suite =
  detection_suites
  @ [ Alcotest.test_case "level-hash bug classes" `Slow test_level_hash_classes;
      Alcotest.test_case "memcached stats P-U" `Slow test_memcached_stats_p_u;
      Alcotest.test_case "hashmap-tx UAF" `Slow test_uaf_detected;
      Alcotest.test_case "rolled-back oracle" `Quick test_rolled_back_oracle;
      Alcotest.test_case "workload determinism" `Quick test_workload_determinism;
      Alcotest.test_case "workload key bias" `Quick test_workload_bias;
      Alcotest.test_case "output equality" `Quick test_output_equal;
      Alcotest.test_case "agamotto-style TX checker" `Quick
        test_agamotto_missing_log;
      Alcotest.test_case "pmtest redis false positive" `Quick
        test_pmtest_redis_false_positive;
      Alcotest.test_case "perf detectors (hand trace)" `Quick test_perf_detectors;
      Alcotest.test_case "recovery idempotence" `Quick test_recovery_idempotent;
      Alcotest.test_case "clustering collapses" `Slow test_clustering_collapses;
      Alcotest.test_case "report formatting" `Quick test_report_smoke;
      Alcotest.test_case "first_diff is earliest divergence" `Quick
        test_first_diff_earliest;
      Alcotest.test_case "streaming check = full-replay reference" `Slow
        test_streaming_matches_reference;
      Alcotest.test_case "final image consistent" `Quick test_final_image_consistent;
      Alcotest.test_case "random explore (fixed store clean)" `Quick
        test_random_explore_smoke;
      Alcotest.test_case "yat estimate monotone" `Quick test_yat_estimate_monotone;
      Alcotest.test_case "cceh fixed dense workload" `Slow
        test_cceh_recovery_via_pipeline;
      QCheck_alcotest.to_alcotest prop_fixed_durable;
      QCheck_alcotest.to_alcotest prop_buggy_found;
      QCheck_alcotest.to_alcotest prop_optimized_checker_parity;
      QCheck_alcotest.to_alcotest prop_batched_checker_parity;
      QCheck_alcotest.to_alcotest prop_batch_engine_parity;
      Alcotest.test_case "replay budget is per op" `Quick test_budget_per_op;
      Alcotest.test_case "replay budget cuts a livelock" `Quick
        test_budget_cuts_livelock;
      Alcotest.test_case "max op cost includes creation" `Quick
        test_max_op_cost;
      Alcotest.test_case "closed replay failure set" `Quick
        test_closed_failure_set;
      QCheck_alcotest.to_alcotest prop_budget_insensitive ]
