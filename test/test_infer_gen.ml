(* Tests for likely-correctness condition inference (Table 2 rules) and
   crash-image generation, built around hand-written mini-programs that
   reproduce the paper's Figure 1 / Figure 3 patterns. *)

open Nvm
module W = Witcher

(* A miniature guarded-protection writer/reader like Level Hashing:
   writer stores value then token; reader checks the token before
   reading the value. *)
let figure1_trace ~writer_ordered =
  let ctx = Ctx.create ~mode:Record (Pmem.create 4096) in
  Ctx.op_begin ctx ~index:0 ~desc:"insert";
  let value_addr = 128 and token_addr = 192 in
  Ctx.write_u64 ctx ~sid:"w.value" value_addr (Tv.const 42);
  if writer_ordered then
    Ctx.persist ctx ~sid:"w.value_persist" value_addr 8;
  Ctx.write_u64 ctx ~sid:"w.token" token_addr Tv.one;
  Ctx.persist ctx ~sid:"w.token_persist" token_addr 8;
  Ctx.op_end ctx ~index:0;
  Ctx.op_begin ctx ~index:1 ~desc:"query";
  let tok = Ctx.read_u64 ctx ~sid:"r.token" token_addr in
  Ctx.when_ ctx tok (fun () ->
      ignore (Ctx.read_u64 ctx ~sid:"r.value" value_addr));
  Ctx.op_end ctx ~index:1;
  Ctx.trace ctx

let test_po3_guardian () =
  let trace = figure1_trace ~writer_ordered:true in
  let conds = W.Infer.infer trace in
  Alcotest.(check bool) "has ordering conditions" true
    (W.Infer.n_ordering conds > 0);
  Alcotest.(check int) "token is the (single) guardian" 1
    (W.Infer.n_guardians conds);
  (* the PO3 condition watches the token cell *)
  let watching = W.Infer.conds_for conds 192 8 in
  Alcotest.(check bool) "token cell watched" true
    (List.exists (fun (c : W.Infer.po) -> c.rule = W.Infer.PO3) watching)

let test_po1_data_dep () =
  let ctx = Ctx.create ~mode:Record (Pmem.create 4096) in
  Ctx.op_begin ctx ~index:0 ~desc:"t";
  let x = Ctx.read_u64 ctx ~sid:"r.x" 128 in
  Ctx.write_u64 ctx ~sid:"w.y" 256 (Tv.add x (Tv.const 3));
  let conds = W.Infer.infer (Ctx.trace ctx) in
  let watching = W.Infer.conds_for conds 256 8 in
  Alcotest.(check bool) "PO1 on y" true
    (List.exists
       (fun (c : W.Infer.po) -> c.rule = W.Infer.PO1 && c.req.c_addr = 128)
       watching)

let test_po2_control_dep () =
  let ctx = Ctx.create ~mode:Record (Pmem.create 4096) in
  Ctx.op_begin ctx ~index:0 ~desc:"t";
  let x = Ctx.read_u64 ctx ~sid:"r.x" 128 in
  Ctx.if_ ctx (Tv.eq x Tv.zero)
    ~then_:(fun () -> Ctx.write_u64 ctx ~sid:"w.y" 256 (Tv.const 3))
    ~else_:(fun () -> ());
  let conds = W.Infer.infer (Ctx.trace ctx) in
  let watching = W.Infer.conds_for conds 256 8 in
  Alcotest.(check bool) "PO2 on y" true
    (List.exists
       (fun (c : W.Infer.po) -> c.rule = W.Infer.PO2 && c.req.c_addr = 128)
       watching)

let test_same_cell_no_condition () =
  let ctx = Ctx.create ~mode:Record (Pmem.create 4096) in
  Ctx.op_begin ctx ~index:0 ~desc:"t";
  let x = Ctx.read_u64 ctx ~sid:"r.x" 128 in
  Ctx.write_u64 ctx ~sid:"w.x" 128 (Tv.add x Tv.one);
  let conds = W.Infer.infer (Ctx.trace ctx) in
  Alcotest.(check int) "counter increments infer nothing" 0
    (W.Infer.n_ordering conds)

(* A sealed condition set has dropped its dedup sets, so a late [feed]
   could only insert duplicates under fresh ids: it must be refused, and
   leave the set as it was. *)
let test_feed_after_seal () =
  let trace = figure1_trace ~writer_ordered:true in
  let conds = W.Infer.create () in
  for i = 0 to Trace.length trace - 1 do
    W.Infer.feed conds trace i
  done;
  W.Infer.seal conds;
  let n = W.Infer.n_ordering conds and g = W.Infer.n_guardians conds in
  Alcotest.(check bool) "conditions inferred" true (n > 0);
  for i = 0 to Trace.length trace - 1 do
    Alcotest.check_raises "feed after seal"
      (Invalid_argument "Infer.feed: the condition set is sealed") (fun () ->
          W.Infer.feed conds trace i)
  done;
  Alcotest.(check (pair int int)) "set unchanged" (n, g)
    (W.Infer.n_ordering conds, W.Infer.n_guardians conds)

(* The word indexes are built when the set is sealed, so an unsealed
   set's are empty: generation over it would silently find nothing, and
   must refuse it instead. *)
let test_generate_unsealed () =
  let trace = figure1_trace ~writer_ordered:false in
  let conds = W.Infer.create () in
  for i = 0 to Trace.length trace - 1 do
    W.Infer.feed conds trace i
  done;
  Alcotest.check_raises "generation over an unsealed set"
    (Invalid_argument
       "Crash_gen.stream_create: the condition set is not sealed") (fun () ->
      ignore
        (W.Crash_gen.generate ~trace ~conds ~pool_size:4096
           ~on_image:(fun _ -> `Continue) ()))

(* Layout guard: a finished condition set holds an ordering condition in
   its id-indexed columns (watch and req cells, rule) and one word-index
   entry per watched word, with no dedup set. Whole-set words per
   ordering condition, buggy store at 200 ops and the default seed,
   measured at 5.61 (fast-fair), 5.42 (rb-tree) and 6.26 (p-bwtree, a
   small set); the bounds are those plus 10%. Word indexes filed in
   16-slot blocks behind a page directory read 7.63, 7.05 and 27.07. *)
let test_condition_layout () =
  List.iter
    (fun (name, bound) ->
       let e = Option.get (Stores.Registry.find name) in
       let module S = (val e.buggy ()) in
       let wl = W.Workload.default in
       let wl = if S.supports_scan then wl else W.Workload.no_scan wl in
       let r = W.Driver.record (module S) (W.Workload.generate wl) in
       let conds = W.Infer.infer r.trace in
       let per_cond =
         float_of_int (Obj.reachable_words (Obj.repr conds))
         /. float_of_int (W.Infer.n_ordering conds)
       in
       if per_cond > bound then
         Alcotest.failf "%s: %.2f words per ordering condition, bound %.2f"
           name per_cond bound)
    [ ("fast-fair", 6.17); ("rb-tree", 5.96); ("p-bwtree", 6.89) ]

(* Crash-image generation on the buggy Figure 1 writer: an image must
   exist where the token persisted and the value did not. *)
let test_violating_image_generated () =
  let trace = figure1_trace ~writer_ordered:false in
  let conds = W.Infer.infer trace in
  let found = ref false in
  let on_image (img : W.Crash_gen.image) =
    let tok = Pmem.read_u64 img.img 192 in
    let v = Pmem.read_u64 img.img 128 in
    if tok = 1 && v = 0 then found := true;
    `Continue
  in
  ignore (W.Crash_gen.generate ~trace ~conds ~pool_size:4096 ~on_image ());
  Alcotest.(check bool) "token-persisted/value-lost image" true !found

(* On the ordered writer, no image may show the violation: feasibility
   must refuse it. *)
let test_no_violation_when_ordered () =
  let trace = figure1_trace ~writer_ordered:true in
  let conds = W.Infer.infer trace in
  let bad = ref false in
  let on_image (img : W.Crash_gen.image) =
    if Pmem.read_u64 img.img 192 = 1 && Pmem.read_u64 img.img 128 = 0 then
      bad := true;
    `Continue
  in
  ignore (W.Crash_gen.generate ~trace ~conds ~pool_size:4096 ~on_image ());
  Alcotest.(check bool) "ordered writer admits no violating image" false !bad

(* Every generated image must contain all guaranteed stores. *)
let test_images_contain_guaranteed () =
  let e = Option.get (Stores.Registry.find "level-hash") in
  let module S = (val e.buggy ()) in
  let ops =
    W.Workload.generate (W.Workload.no_scan { W.Workload.default with n_ops = 40 })
  in
  let r = W.Driver.record (module S) ops in
  let conds = W.Infer.infer r.trace in
  (* track guaranteed stores alongside generation via a parallel sim *)
  let ok = ref true and n = ref 0 in
  let on_image (img : W.Crash_gen.image) =
    incr n;
    (* the pool magic was persisted at creation: must be in every image *)
    if Pmem.read_u64 img.img 0 <> Pmdk.Layout.magic then ok := false;
    `Continue
  in
  ignore (W.Crash_gen.generate ~trace:r.trace ~conds ~pool_size:r.pool_size ~on_image ());
  Alcotest.(check bool) "images generated" true (!n > 0);
  Alcotest.(check bool) "guaranteed stores present" true !ok

(* Candidate accounting: [stats.candidates] counts every feasible
   violation before image dedup, in both the [emit] and the baseline
   paths; [generated] counts the distinct images. Two PO1 conditions
   watching the same store produce the same extra persist-set, so the
   second is deduplicated: 2 emit candidates + 1 baseline candidate, but
   only 1 + 1 distinct images. *)
let test_candidate_accounting () =
  let ctx = Ctx.create ~mode:Record (Pmem.create 4096) in
  Ctx.op_begin ctx ~index:0 ~desc:"t";
  Ctx.write_u64 ctx ~sid:"w.x1" 128 (Tv.const 7);
  Ctx.write_u64 ctx ~sid:"w.x2" 192 (Tv.const 9);
  let a = Ctx.read_u64 ctx ~sid:"r.x1" 128 in
  let b = Ctx.read_u64 ctx ~sid:"r.x2" 192 in
  Ctx.write_u64 ctx ~sid:"w.y" 256 (Tv.add a b);
  Ctx.persist ctx ~sid:"w.y_persist" 256 8;
  Ctx.op_end ctx ~index:0;
  let trace = Ctx.trace ctx in
  let conds = W.Infer.infer trace in
  (* both conditions watch the y cell *)
  Alcotest.(check int) "two PO1 conditions on y" 2
    (List.length (W.Infer.conds_for conds 256 8));
  let stats =
    W.Crash_gen.generate ~trace ~conds ~pool_size:4096
      ~on_image:(fun _ -> `Continue) ()
  in
  Alcotest.(check int) "candidates counted pre-dedup" 3 stats.candidates;
  Alcotest.(check int) "distinct images post-dedup" 2 stats.generated;
  Alcotest.(check int) "all distinct images tested" 2 stats.tested;
  Alcotest.(check bool) "candidates >= generated" true
    (stats.candidates >= stats.generated)

(* Yat estimator sanity. *)
let test_yat_log10_fact () =
  let f = W.Yat.log10_fact in
  Alcotest.(check (float 1e-6)) "0!" 0.0 (f 0);
  Alcotest.(check (float 1e-6)) "5!" (log10 120.0) (f 5);
  Alcotest.(check bool) "monotone" true (f 100 > f 99)

let test_yat_exhaustive_beats_witcher_count () =
  let e = Option.get (Stores.Registry.find "level-hash") in
  let module S = (val e.buggy ()) in
  let ops =
    W.Workload.generate (W.Workload.no_scan { W.Workload.default with n_ops = 6 })
  in
  let r = W.Driver.record (module S) ops in
  let conds = W.Infer.infer r.trace in
  let witcher = ref 0 in
  ignore
    (W.Crash_gen.generate ~trace:r.trace ~conds ~pool_size:r.pool_size
       ~on_image:(fun _ -> incr witcher; `Continue) ());
  let yat =
    W.Yat.exhaustive ~per_fence_limit:64 ~max_images:20000 ~trace:r.trace
      ~pool_size:r.pool_size ~on_image:(fun _ -> `Continue) ()
  in
  Alcotest.(check bool) "exhaustive explores more states" true (yat > !witcher)

let suite =
  [ Alcotest.test_case "PO3 guardian inference" `Quick test_po3_guardian;
    Alcotest.test_case "PO1 from data dependency" `Quick test_po1_data_dep;
    Alcotest.test_case "PO2 from control dependency" `Quick test_po2_control_dep;
    Alcotest.test_case "same-cell deps are skipped" `Quick test_same_cell_no_condition;
    Alcotest.test_case "feed after seal is refused" `Quick test_feed_after_seal;
    Alcotest.test_case "generation refuses an unsealed set" `Quick
      test_generate_unsealed;
    Alcotest.test_case "condition layout: words per condition" `Quick
      test_condition_layout;
    Alcotest.test_case "violating image generated (Fig 1b)" `Quick
      test_violating_image_generated;
    Alcotest.test_case "no violating image when ordered" `Quick
      test_no_violation_when_ordered;
    Alcotest.test_case "images contain guaranteed stores" `Quick
      test_images_contain_guaranteed;
    Alcotest.test_case "candidate accounting is pre-dedup" `Quick
      test_candidate_accounting;
    Alcotest.test_case "yat log10 factorial" `Quick test_yat_log10_fact;
    Alcotest.test_case "yat exhaustive > witcher images" `Quick
      test_yat_exhaustive_beats_witcher_count ]
