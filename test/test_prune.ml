(* lib/prune: path-signature equivalence classes, divergence-driven
   expansion, and the engine's Representative policy.

   The headline property is the parity gate: at small workloads, a
   Representative run must report the exact same bug clusters as an
   Exhaustive run — one validated image per class plus spot checks and
   divergence-driven expansion lose no bugs, only redundant validations.
   Everything else here pins the pieces: policy parsing, signature
   stability, the spot/promotion schedule, the registry's bookkeeping,
   and which candidates each walk of every policy tests. *)

module W = Witcher
module R = Stores.Registry
module P = Prune

(* --- Policy --- *)

let test_policy_parse () =
  let open P.Policy in
  Alcotest.(check string) "exhaustive" "exhaustive" (name Exhaustive);
  Alcotest.(check string) "representative" "representative" (name Representative);
  Alcotest.(check string) "sample" "sample:4" (name (Sample 4));
  let round s = Result.map name (of_string s) in
  Alcotest.(check (result string string)) "roundtrip exhaustive"
    (Ok "exhaustive") (round "exhaustive");
  Alcotest.(check (result string string)) "repr shorthand"
    (Ok "representative") (round "repr");
  Alcotest.(check (result string string)) "sample:7" (Ok "sample:7")
    (round "sample:7");
  Alcotest.(check bool) "garbage rejected" true
    (Result.is_error (of_string "zap"));
  Alcotest.(check bool) "sample:0 rejected" true
    (Result.is_error (of_string "sample:0"))

(* --- Path_sig --- *)

let sid = Nvm.Sid.intern

let test_path_sig_basics () =
  let mk ?(op = "insert") ?(path = 42) ?(w = "site.a") ?(r = "site.b") () =
    P.Path_sig.make ~op_kind:(sid op) ~path ~watch:(sid w) ~req:(sid r)
  in
  let a = mk () and b = mk () in
  Alcotest.(check bool) "equal" true (P.Path_sig.equal a b);
  Alcotest.(check int) "compare 0" 0 (P.Path_sig.compare a b);
  Alcotest.(check int) "hash agrees" (P.Path_sig.hash a) (P.Path_sig.hash b);
  Alcotest.(check bool) "op differs" false
    (P.Path_sig.equal a (mk ~op:"delete" ()));
  Alcotest.(check bool) "path differs" false
    (P.Path_sig.equal a (mk ~path:43 ()));
  Alcotest.(check bool) "watch differs" false
    (P.Path_sig.equal a (mk ~w:"site.c" ()));
  Alcotest.(check bool) "req differs" false
    (P.Path_sig.equal a (mk ~r:"site.c" ()))

(* The stable key must depend on the interned sites' *labels*, never on
   their interning order, so it can name a class across processes and
   across seeds (interning order follows first use, which follows the
   workload). *)
let test_path_sig_stable_key () =
  let a =
    P.Path_sig.make ~op_kind:(sid "insert") ~path:7
      ~watch:(sid "stable.w") ~req:(sid "stable.r")
  in
  Alcotest.(check string) "pinned across processes"
    (P.Path_sig.stable_key a)
    (P.Path_sig.stable_key
       (P.Path_sig.make ~op_kind:(sid "insert") ~path:7
          ~watch:(sid "stable.w") ~req:(sid "stable.r")));
  Alcotest.(check bool) "differs on path" true
    (P.Path_sig.stable_key a
     <> P.Path_sig.stable_key
          (P.Path_sig.make ~op_kind:(sid "insert") ~path:8
             ~watch:(sid "stable.w") ~req:(sid "stable.r")))

(* [step] must likewise fold the site's label, not its interning order:
   interning extra sids between two folds must not change the digest. *)
let test_path_step_label_stable () =
  let h1 = P.Path_sig.step 0 (sid "step.x") in
  for i = 0 to 99 do
    ignore (sid (Printf.sprintf "step.noise%d" i))
  done;
  let h2 = P.Path_sig.step 0 (sid "step.x") in
  Alcotest.(check int) "same label, same fold" h1 h2;
  Alcotest.(check bool) "different labels differ" true
    (P.Path_sig.step 0 (sid "step.x") <> P.Path_sig.step 0 (sid "step.y"))

(* --- Spot schedule and expansion --- *)

let sig_of i =
  P.Path_sig.make ~op_kind:(sid "op") ~path:i ~watch:(sid "w") ~req:(sid "r")

(* Power-of-two arrival indices are spot-checked, at most [budget] per
   class beyond the representative. Every verdict agrees, so the class
   stays collapsed and only the schedule decides. *)
let test_expand_spots () =
  let t = P.Equiv_class.create ~budget:3 in
  let s = sig_of 100 in
  let decisions =
    List.init 9 (fun m ->
        let d = P.Equiv_class.decide t ~sig_:s ~member:m in
        if d = `Test then P.Equiv_class.observe t ~sig_:s ~consistent:true;
        d = `Test)
  in
  Alcotest.(check (list bool)) "members 0, 1, 2 and 4 tested"
    [ true; true; true; false; true; false; false; false; false ] decisions;
  Alcotest.(check int) "rep + 3 spots" 4 (P.Equiv_class.n_reps t);
  Alcotest.(check int) "3 and 5-8 deferred" 5 (P.Equiv_class.n_deferred t);
  Alcotest.(check int) "no promotion" 0 (P.Equiv_class.n_promoted t)

let test_expand_on_verdict () =
  let t = P.Equiv_class.create ~budget:3 in
  let test s m consistent =
    Alcotest.(check bool) "tested" true
      (P.Equiv_class.decide t ~sig_:s ~member:m = `Test);
    P.Equiv_class.observe t ~sig_:s ~consistent
  in
  let prediction s =
    (List.find
       (fun (ci : P.Equiv_class.info) -> P.Path_sig.equal ci.i_sig s)
       (P.Equiv_class.classes_info t)).i_prediction
  in
  (* the first verdict is the prediction, consistent or not: an
     inconsistent representative already reports its cluster, so its
     siblings could only re-count the same bug *)
  let a = sig_of 101 and b = sig_of 102 in
  test a 0 false;
  Alcotest.(check (option bool)) "first inconsistent sets" (Some false)
    (prediction a);
  test b 0 true;
  Alcotest.(check (option bool)) "first consistent sets" (Some true)
    (prediction b);
  Alcotest.(check int) "first verdicts promote nothing" 0
    (P.Equiv_class.n_promoted t);
  test a 1 false;
  test b 1 true;
  Alcotest.(check int) "agreeing keeps" 0 (P.Equiv_class.n_promoted t);
  test b 2 false;
  Alcotest.(check int) "divergence promotes" 1 (P.Equiv_class.n_promoted t);
  test a 2 true;
  Alcotest.(check int) "divergence promotes (either way)" 2
    (P.Equiv_class.n_promoted t)

(* --- Equiv_class registry --- *)

let test_registry_rep_and_defer () =
  let t = P.Equiv_class.create ~budget:3 in
  let s = sig_of 1 in
  Alcotest.(check bool) "first member tested" true
    (P.Equiv_class.decide t ~sig_:s ~member:0 = `Test);
  P.Equiv_class.observe t ~sig_:s ~consistent:true;
  (* arrival indices 1 and 2 are power-of-two spots; index 3 defers *)
  Alcotest.(check bool) "spot tested" true
    (P.Equiv_class.decide t ~sig_:s ~member:1 = `Test);
  P.Equiv_class.observe t ~sig_:s ~consistent:true;
  Alcotest.(check bool) "second spot tested" true
    (P.Equiv_class.decide t ~sig_:s ~member:2 = `Test);
  P.Equiv_class.observe t ~sig_:s ~consistent:true;
  Alcotest.(check bool) "non-spot deferred" true
    (P.Equiv_class.decide t ~sig_:s ~member:3 = `Defer);
  Alcotest.(check int) "one class" 1 (P.Equiv_class.n_classes t);
  Alcotest.(check int) "one deferral" 1 (P.Equiv_class.n_deferred t);
  Alcotest.(check int) "no promotion" 0 (P.Equiv_class.n_promoted t);
  (* nothing is promoted, so wave 1 holds only the consistent collapsed
     class's tail spot-check: its newest deferred member *)
  (match P.Equiv_class.next_wave t ~k:1 with
   | [ (m, s', prov) ] ->
     Alcotest.(check bool) "tail is the class" true (P.Path_sig.equal s s');
     Alcotest.(check int) "tail is newest deferred" 3 m;
     Alcotest.(check string) "tagged tail" "tail" prov
   | l -> Alcotest.failf "expected one tail spot, got %d" (List.length l))

let test_registry_promotion () =
  let t = P.Equiv_class.create ~budget:3 in
  let s = sig_of 2 in
  Alcotest.(check bool) "rep" true (P.Equiv_class.decide t ~sig_:s ~member:10 = `Test);
  P.Equiv_class.observe t ~sig_:s ~consistent:true;
  Alcotest.(check bool) "spot" true (P.Equiv_class.decide t ~sig_:s ~member:11 = `Test);
  (* the spot diverges from the consistent prediction: promote *)
  P.Equiv_class.observe t ~sig_:s ~consistent:false;
  Alcotest.(check int) "promoted" 1 (P.Equiv_class.n_promoted t);
  Alcotest.(check bool) "later members tested inline" true
    (P.Equiv_class.decide t ~sig_:s ~member:12 = `Test);
  Alcotest.(check int) "inline expansion counted" 1
    (P.Equiv_class.n_inline_expanded t);
  (* a promoted class is no longer a tail-spot candidate *)
  Alcotest.(check bool) "no tail spots" true (P.Equiv_class.next_wave t ~k:1 = [])

(* --- Schedule --- *)

let unforced = lazy (Alcotest.fail "signature forced outside walk 0")

(* Exhaustive and sample runs make one walk and never build a class
   signature. *)
let test_schedule_single_walk () =
  let walk policy =
    let t = P.Schedule.create policy ~budget:3 in
    let tested =
      List.filter
        (fun m ->
           match P.Schedule.decide t ~sig_:unforced ~member:(m, 0) with
           | `Test ->
             Alcotest.(check string) "provenance"
               (if policy = P.Policy.Exhaustive then "exhaustive" else "sample")
               (P.Schedule.prov t);
             Alcotest.(check bool) "never stops" true
               (P.Schedule.observe t ~consistent:(m mod 2 = 0) = `Continue);
             true
           | `Defer -> false)
        (List.init 9 Fun.id)
    in
    Alcotest.(check bool) "no wave" true (P.Schedule.next_wave t = None);
    Alcotest.(check bool) "no revisit" false (P.Schedule.revisits t);
    Alcotest.(check (triple int int int)) "no classes" (0, 0, 0)
      (P.Schedule.counts t);
    tested
  in
  Alcotest.(check (list int)) "exhaustive tests all" (List.init 9 Fun.id)
    (walk P.Policy.Exhaustive);
  Alcotest.(check (list int)) "sample:3 tests 0, 3, 6" [ 0; 3; 6 ]
    (walk (P.Policy.Sample 3))

(* Representative: class [a] is promoted in walk 0 with member 3
   deferred; [b] and [d] stay collapsed and consistent, with members 3,
   5 and 6, and 3 and 5, deferred; [c] stays collapsed and inconsistent.
   Wave 1 re-tests [a]'s member and the tails of [b] and [d]. [b]'s tail
   disagrees, so wave 2 holds [b]'s other deferred members, and no wave
   after the first takes another tail of [d]. *)
let test_schedule_waves () =
  let t = P.Schedule.create P.Policy.Representative ~budget:3 in
  Alcotest.(check bool) "revisits" true (P.Schedule.revisits t);
  let a = sig_of 200 and b = sig_of 201 and c = sig_of 202 and d = sig_of 203 in
  let members =
    List.concat_map (fun (s, k, n) -> List.init n (fun i -> (s, (k, i))))
      [ (a, 1, 6); (b, 2, 7); (c, 3, 4); (d, 4, 6) ]
  in
  let verdict s (_, i) =
    if P.Path_sig.equal s a then i <> 4 else not (P.Path_sig.equal s c)
  in
  List.iter
    (fun (s, m) ->
       match P.Schedule.decide t ~sig_:(lazy s) ~member:m with
       | `Test ->
         Alcotest.(check bool) "walk 0 never stops" true
           (P.Schedule.observe t ~consistent:(verdict s m) = `Continue)
       | `Defer -> ())
    members;
  Alcotest.(check (triple int int int)) "classes, reps, promoted" (4, 15, 1)
    (P.Schedule.counts t);
  (* one walk over the same eligible stream: the members it tests, their
     provenance and whether [observe] stopped the walk; [b]'s tail is the
     one verdict that differs from walk 0's *)
  let wave () =
    List.filter_map
      (fun (s, m) ->
         match P.Schedule.decide t ~sig_:unforced ~member:m with
         | `Test ->
           let prov = P.Schedule.prov t in
           let consistent = verdict s m && m <> (2, 6) in
           Some (m, prov, P.Schedule.observe t ~consistent = `Stop)
         | `Defer -> None)
      members
  in
  Alcotest.(check (option int)) "wave 1" (Some 1) (P.Schedule.next_wave t);
  Alcotest.(check (list (triple (pair int int) string bool)))
    "a's deferred member, then the tails; the last ends the wave"
    [ ((1, 3), "wave:1", false); ((2, 6), "tail", false);
      ((4, 5), "tail", true) ]
    (wave ());
  Alcotest.(check int) "b's tail promotes b" 2
    (let _, _, p = P.Schedule.counts t in p);
  Alcotest.(check (option int)) "wave 2" (Some 2) (P.Schedule.next_wave t);
  Alcotest.(check (list (triple (pair int int) string bool)))
    "b's other deferred members, never its tail"
    [ ((2, 3), "wave:2", false); ((2, 5), "wave:2", true) ]
    (wave ());
  Alcotest.(check (option int)) "no wave 3" None (P.Schedule.next_wave t);
  Alcotest.(check int) "wave-tested" 5 (P.Schedule.wave_tested t);
  Alcotest.(check (list int)) "deferred counts every member ever deferred"
    [ 1; 3; 1; 2 ]
    (List.map
       (fun s ->
          (List.find
             (fun (ci : P.Schedule.info) -> P.Path_sig.equal ci.i_sig s)
             (P.Schedule.classes_info t)).i_deferred)
       [ a; b; c; d ])

(* --- Engine integration --- *)

let cluster_key (r : W.Cluster.report) =
  (r.kind, r.op_desc, r.path_hash, r.watch_sid, r.req_sid, r.rule)

let cluster_keys (r : W.Engine.result) =
  List.sort_uniq compare (List.map cluster_key r.all_clusters)

let engine_cfg ?(seed = W.Workload.default.seed) ?(n_ops = 60)
    ?(prune = P.Policy.Exhaustive) () =
  { W.Engine.default_cfg with
    workload = { W.Workload.default with n_ops; seed };
    crash = { W.Crash_gen.default_cfg with max_images = 600 };
    prune }

(* Representative mode must never change *what* is found, only how many
   images are validated to find it. *)
let test_representative_parity_level_hash () =
  let ex =
    W.Engine.run ~cfg:(engine_cfg ()) (Stores.Level_hash.buggy ())
  in
  let rp =
    W.Engine.run ~cfg:(engine_cfg ~prune:P.Policy.Representative ())
      (Stores.Level_hash.buggy ())
  in
  Alcotest.(check bool) "same clusters" true (cluster_keys ex = cluster_keys rp);
  Alcotest.(check int) "same root causes" (List.length ex.bug_reports)
    (List.length rp.bug_reports);
  Alcotest.(check bool) "validates no more than exhaustive" true
    (rp.images_tested <= ex.images_tested);
  Alcotest.(check int) "exhaustive defers nothing" 0 ex.images_deferred;
  Alcotest.(check int) "elided = deferred - expanded" rp.images_elided
    (rp.images_deferred - (rp.images_tested - rp.prune_reps));
  Alcotest.(check bool) "classes observed" true (rp.prune_classes > 0)

(* The qcheck parity gate (ISSUE 6): at <= 60 ops, Representative reports
   the exact same bug clusters as Exhaustive, across the registry stores,
   at random seeds. *)
let prop_representative_parity =
  QCheck2.Test.make
    ~name:"representative = exhaustive bug clusters, all stores (seeds)"
    ~count:3
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
       List.for_all
         (fun (e : R.entry) ->
            let ex = W.Engine.run ~cfg:(engine_cfg ~seed ()) (e.buggy ()) in
            let rp =
              W.Engine.run
                ~cfg:(engine_cfg ~seed ~prune:P.Policy.Representative ())
                (e.buggy ())
            in
            cluster_keys ex = cluster_keys rp
            && rp.images_tested <= ex.images_tested)
         R.all)

(* Parity at open caps: with the per-site cap at 6 the crash generator
   already squeezes each site down to a handful of images, leaving the
   class registry almost nothing to elide. Opened up, the registry
   decides which of thousands of eligible images get validated, and
   Representative must still report every cluster Exhaustive does. *)
let open_caps =
  { W.Crash_gen.default_cfg with max_images = 200_000; per_site_cap = 10_000 }

let test_open_cap_parity () =
  let elided = ref 0 in
  List.iter
    (fun name ->
       let e = Option.get (R.find name) in
       List.iter
         (fun n_ops ->
            let run prune =
              W.Engine.run
                ~cfg:{ (engine_cfg ~n_ops ~prune ()) with crash = open_caps }
                (e.buggy ())
            in
            let ex = run P.Policy.Exhaustive in
            let rp = run P.Policy.Representative in
            let what = Printf.sprintf "%s at %d ops" name n_ops in
            Alcotest.(check bool) (what ^ ": same clusters") true
              (cluster_keys ex = cluster_keys rp);
            Alcotest.(check (pair int int)) (what ^ ": same root causes")
              (ex.c_o, ex.c_a) (rp.c_o, rp.c_a);
            elided := !elided + rp.images_elided)
         [ 30; 60 ])
    [ "level-hash"; "fast-fair"; "cceh" ];
  Alcotest.(check bool) "the registry elided images" true (!elided > 0)

(* Truncated signatures (--sig-depth): over one recorded trace, depth 4
   must hand out the same images as depth 0 with the same full-path
   digest, and only the pruning signature ([cd_path_sig], which [decide]
   sees) may change: to the fold of the crashed op's last four load/store
   sites before the crash, read back from the trace independently of the
   generator's site window. *)
let test_sig_depth () =
  let e = Option.get (R.find "level-hash") in
  let module S = (val e.buggy ()) in
  let wl = W.Workload.no_scan { W.Workload.default with n_ops = 30 } in
  let r = W.Driver.record (module S) (W.Workload.generate wl) in
  let conds = W.Infer.infer r.trace in
  (* every candidate is tested, so each image follows its own [decide] *)
  let images sig_depth =
    let acc = ref [] and sig_ = ref 0 in
    ignore
      (W.Crash_gen.generate ~sig_depth ~trace:r.trace ~conds
         ~pool_size:r.pool_size
         ~decide:(fun (c : W.Crash_gen.cand) -> sig_ := c.cd_path_sig; `Test)
         ~on_image:(fun (img : W.Crash_gen.image) ->
             acc := (img, !sig_) :: !acc;
             `Continue)
         ());
    List.rev !acc
  in
  (* the load/store sids of [crash_tid]'s op before it, newest first *)
  let op_sites crash_tid =
    let rec back tid acc =
      if tid < 0 then List.rev acc
      else
        match Nvm.Trace.get r.trace tid with
        | Nvm.Trace.Op_begin _ -> List.rev acc
        | Nvm.Trace.Load l -> back (tid - 1) (l.l_sid :: acc)
        | Nvm.Trace.Store s -> back (tid - 1) (s.s_sid :: acc)
        | _ -> back (tid - 1) acc
    in
    back (crash_tid - 1) []
  in
  let fold sids = List.fold_left P.Path_sig.step 0 (List.rev sids) in
  let rec take k = function
    | x :: xs when k > 0 -> x :: take (k - 1) xs
    | _ -> []
  in
  let full = images 0 and cut = images 4 in
  let stream l =
    List.map
      (fun ((i : W.Crash_gen.image), _) -> (i.crash_tid, i.digest, i.path_hash))
      l
  in
  Alcotest.(check bool) "images generated" true (full <> []);
  Alcotest.(check bool) "same image stream at both depths" true
    (stream full = stream cut);
  List.iter
    (fun ((i : W.Crash_gen.image), sig_) ->
       let sites = op_sites i.crash_tid in
       Alcotest.(check int) "path_hash folds the whole op" (fold sites)
         i.path_hash;
       Alcotest.(check int) "depth 0: path_sig = path_hash" i.path_hash sig_)
    full;
  List.iter
    (fun ((i : W.Crash_gen.image), sig_) ->
       Alcotest.(check int) "depth 4: path_sig folds the last 4 sites"
         (fold (take 4 (op_sites i.crash_tid)))
         sig_)
    cut;
  let classes sig_depth =
    (W.Engine.run
       ~cfg:
         { (engine_cfg ~n_ops:30 ~prune:P.Policy.Representative ()) with
           crash = open_caps; sig_depth }
       (e.buggy ()))
      .prune_classes
  in
  Alcotest.(check bool) "depth 4 merges classes" true (classes 4 <= classes 0)

(* Sample mode is the blind statistical fallback: it must run, validate
   roughly 1/stride of the eligible stream, and never invent bugs. *)
let test_sample_policy () =
  let ex = W.Engine.run ~cfg:(engine_cfg ()) (Stores.Level_hash.buggy ()) in
  let sp =
    W.Engine.run ~cfg:(engine_cfg ~prune:(P.Policy.Sample 4) ())
      (Stores.Level_hash.buggy ())
  in
  Alcotest.(check bool) "samples a fraction" true
    (sp.images_tested < ex.images_tested && sp.images_tested > 0);
  Alcotest.(check bool) "subset of exhaustive clusters" true
    (List.for_all
       (fun k -> List.mem k (cluster_keys ex))
       (cluster_keys sp))

let suite =
  [ Alcotest.test_case "policy parse/print" `Quick test_policy_parse;
    Alcotest.test_case "path_sig equality" `Quick test_path_sig_basics;
    Alcotest.test_case "path_sig stable key" `Quick test_path_sig_stable_key;
    Alcotest.test_case "path step label-stable" `Quick test_path_step_label_stable;
    Alcotest.test_case "expand spot schedule" `Quick test_expand_spots;
    Alcotest.test_case "expand verdict policy" `Quick test_expand_on_verdict;
    Alcotest.test_case "registry rep/spot/defer" `Quick test_registry_rep_and_defer;
    Alcotest.test_case "registry promotion" `Quick test_registry_promotion;
    Alcotest.test_case "representative parity (level-hash)" `Slow
      test_representative_parity_level_hash;
    Alcotest.test_case "representative parity at open caps" `Slow
      test_open_cap_parity;
    Alcotest.test_case "sig-depth truncates path_sig only" `Slow
      test_sig_depth;
    Alcotest.test_case "sample policy" `Slow test_sample_policy;
    QCheck_alcotest.to_alcotest prop_representative_parity;
    Alcotest.test_case "schedule: one walk unless representative" `Quick
      test_schedule_single_walk;
    Alcotest.test_case "schedule: expansion waves" `Quick test_schedule_waves ]
