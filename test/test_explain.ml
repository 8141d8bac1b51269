(* Forensics tests (ISSUE 8): the event log and `witcher explain`.

   - Golden file: the explain text for the seeded level-hash bug is
     byte-stable — events carry no timestamps, so the whole log is a
     pure function of (store, seed, config) — and the same with or
     without a bounded trace window.
   - qcheck property: every verdict event's provenance chain (verdict ->
     image -> condition, cluster -> verdict) resolves, across registry
     stores at random seeds and both exhaustive and representative
     pruning.
   - Acceptance: on level-hash / fast-fair / cceh at the default 200-op
     config, explain reconstructs a full chain for every reported bug
     purely from the on-disk event file — no re-execution. *)

module W = Witcher
module C = Campaign
module R = Stores.Registry

let tmp_file () =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "witcher-explain-%d-%d.jsonl" (Unix.getpid ())
       (Random.bits ()))

let engine_cfg ?(n_ops = 60) ?(seed = 42) ?(max_images = 400)
    ?(prune = Prune.Policy.Exhaustive) () =
  { W.Engine.default_cfg with
    workload = { W.Workload.default with n_ops; seed };
    crash = { W.Crash_gen.default_cfg with max_images };
    prune }

let batch cfg instance = W.Engine.run ~cfg instance
let stream cfg instance = W.Engine.run_stream ~cfg instance

(* Run the pipeline with the event sink on; return (result, items). *)
let run_with_events ?(engine = batch) ?path cfg instance =
  Obs.Event.start ?path ();
  let r = engine cfg instance in
  let items = Obs.Event.stop () in
  (r, items)

(* ---------- golden explain text ---------- *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Either window setting must render the same text: the window changes
   what stays resident, never what the event log says about a bug. *)
let test_golden_explain engine () =
  let path = tmp_file () in
  let _, _ =
    run_with_events ~engine ~path (engine_cfg ()) (Stores.Level_hash.buggy ())
  in
  let source =
    match C.Explain.load path with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let got = C.Explain.render_text source in
  Sys.remove path;
  (* cwd is test/ under `dune runtest`, the workspace root under a bare
     `dune exec` — same dodge as the frontend golden test *)
  let golden =
    if Sys.file_exists "golden_explain_level_hash.txt" then
      "golden_explain_level_hash.txt"
    else "test/golden_explain_level_hash.txt"
  in
  let expect = read_file golden in
  if got <> expect then begin
    (* dump the mismatch so a legitimate change can refresh the golden *)
    let oc = open_out (golden ^ ".new") in
    output_string oc got;
    close_out oc;
    Alcotest.fail
      "explain text diverged from golden_explain_level_hash.txt (new \
       output written next to it as .new; promote it if the change is \
       intended)"
  end

(* ---------- provenance chains resolve (qcheck) ---------- *)

let prop_chains_resolve =
  QCheck2.Test.make
    ~name:"event provenance chains resolve, all stores (seeds)" ~count:3
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
       List.for_all
         (fun (e : R.entry) ->
            (* alternate pruning policy by seed parity so both the
               exhaustive and the representative/expansion provenance
               paths are exercised *)
            let prune =
              if seed mod 2 = 0 then Prune.Policy.Exhaustive
              else Prune.Policy.Representative
            in
            let _, items =
              run_with_events
                (engine_cfg ~n_ops:40 ~seed ~max_images:200 ~prune ())
                (e.buggy ())
            in
            match C.Explain.check_chains items with
            | Ok _ -> true
            | Error msg ->
              QCheck2.Test.fail_reportf "store %s seed %d: %s" e.name seed
                msg)
         R.all)

(* ---------- full-chain acceptance, default config ---------- *)

let test_acceptance_default_config () =
  List.iter
    (fun store ->
       let e =
         match R.find store with
         | Some e -> e
         | None -> Alcotest.fail ("unknown store " ^ store)
       in
       let path = tmp_file () in
       let r, _ =
         run_with_events ~path
           { W.Engine.default_cfg with
             crash = { W.Crash_gen.default_cfg with max_images = 4000 } }
           (e.buggy ())
       in
       (* post-hoc only: everything below comes from the on-disk file *)
       let source =
         match C.Explain.load path with
         | Ok s -> s
         | Error err -> Alcotest.fail err
       in
       Sys.remove path;
       let runs =
         match source with
         | C.Explain.Events runs -> runs
         | C.Explain.Journal_only _ -> Alcotest.fail "expected event data"
       in
       let bugs = C.Explain.bugs runs in
       Alcotest.(check int)
         (store ^ ": one bug per reported cluster")
         (List.length r.all_clusters) (List.length bugs);
       Alcotest.(check bool)
         (store ^ ": bugs reported")
         true
         (bugs <> []);
       List.iter
         (fun b ->
            let f = C.Explain.resolve b in
            let present what o =
              Alcotest.(check bool)
                (Printf.sprintf "%s/%s: %s resolved" store
                   (C.Jsonx.str_field b.C.Explain.b_cluster "class")
                   what)
                true (o <> None)
            in
            present "verdict" f.C.Explain.f_verdict;
            present "image" f.C.Explain.f_image;
            present "cond" f.C.Explain.f_cond;
            present "slice" f.C.Explain.f_slice)
         bugs;
       (* and the renderer accepts every per-bug selection *)
       List.iteri
         (fun i _ ->
            let txt = C.Explain.render_text ~bug:(i + 1) source in
            Alcotest.(check bool)
              (Printf.sprintf "%s: bug %d renders" store (i + 1))
              true
              (String.length txt > 0))
         bugs)
    [ "level-hash"; "fast-fair"; "cceh" ]

(* ---------- bug slices list flushes ---------- *)

(* A slice lists the flushes of the condition's cache lines beside its
   stores. A flush's trace address is its line index, so it is matched,
   and printed, by the line's 64 bytes. *)
let test_slice_lists_flushes () =
  let _, items =
    run_with_events (engine_cfg ~n_ops:200 ()) (Stores.Level_hash.buggy ())
  in
  let flush_rows =
    List.concat_map
      (fun j ->
         match C.Jsonx.str_field j "e", C.Jsonx.member "entries" j with
         | "slice", Some (C.Jsonx.List rows) ->
           List.filter_map
             (function
               | C.Jsonx.List [ _; C.Jsonx.Str "flush"; _; C.Jsonx.Int addr;
                                C.Jsonx.Int len; _ ] -> Some (addr, len)
               | _ -> None)
             rows
         | _ -> [])
      items
  in
  Alcotest.(check bool) "a slice lists a flush" true (flush_rows <> []);
  List.iter
    (fun (addr, len) ->
       Alcotest.(check (pair int int)) "a flush row spans its line"
         (addr / 64 * 64, 64) (addr, len))
    flush_rows

(* ---------- a run's indexes pick what the scans picked ---------- *)

(* One class with two inconsistent verdicts, two `class` records, two
   slices of the first verdict's image and two oracles of its crash op:
   a bug resolves the first verdict, the last class record, the first
   slice and the first oracle, and an op index's last description. *)
let test_resolve_picks () =
  let open C.Jsonx in
  let ev i e fields = Obj ((("e", Str e) :: ("i", Int i) :: fields)) in
  let image i = ev i "image" [ ("action", Str "test"); ("crash_op", Int 3);
                               ("fence", Int 40); ("cond", Int 2) ] in
  let verdict i img =
    ev i "verdict" [ ("image", Int img); ("class", Str "k");
                     ("consistent", Bool false); ("prov", Str "rep") ]
  in
  let slice i = ev i "slice" [ ("image", Int 4); ("entries", List []) ] in
  let oracle i via = ev i "oracle" [ ("op", Int 3); ("via", Str via) ] in
  let cls i n = ev i "class" [ ("class", Str "k"); ("members", Int n) ] in
  let items =
    [ ev 0 "run" [ ("v", Int Obs.Event.version); ("store", Str "toy") ];
      ev 1 "op" [ ("op", Int 3); ("desc", Str "insert(1)") ];
      ev 2 "cond" [ ("rule", Str "PO1") ];
      ev 3 "verdict" [ ("image", Int 4); ("class", Str "k");
                       ("consistent", Bool true) ];
      image 4; verdict 5 4; slice 6; oracle 7 "ckpt";
      image 8; verdict 9 8; slice 10; oracle 11 "full";
      ev 12 "op" [ ("op", Int 3); ("desc", Str "insert(2)") ];
      cls 13 1; cls 14 2;
      ev 15 "cluster" [ ("class", Str "k") ] ]
  in
  let runs = C.Explain.split_runs items in
  let f =
    match C.Explain.bugs runs with
    | [ b ] -> C.Explain.resolve b
    | l -> Alcotest.failf "expected one bug, got %d" (List.length l)
  in
  let id = function Some j -> int_field j "i" | None -> -1 in
  Alcotest.(check int) "first inconsistent verdict" 5 (id f.C.Explain.f_verdict);
  Alcotest.(check int) "its image" 4 (id f.C.Explain.f_image);
  Alcotest.(check int) "its condition" 2 (id f.C.Explain.f_cond);
  Alcotest.(check int) "first slice" 6 (id f.C.Explain.f_slice);
  Alcotest.(check int) "first oracle" 7 (id f.C.Explain.f_oracle);
  Alcotest.(check int) "last class record" 14 (id f.C.Explain.f_class);
  Alcotest.(check (option string)) "last op description" (Some "insert(2)")
    (Hashtbl.find_opt f.C.Explain.f_ops 3);
  Alcotest.(check (result int string)) "chains resolve" (Ok 1)
    (C.Explain.check_chains items)

(* ---------- metrics exemplar links into the event stream ---------- *)

let test_exemplar_links_to_image () =
  let path = tmp_file () in
  let _, items =
    run_with_events ~path (engine_cfg ()) (Stores.Level_hash.buggy ())
  in
  Sys.remove path;
  let m = Obs.Metrics.snapshot Obs.Metrics.default in
  let h =
    match List.assoc_opt "equiv.replay_len" m.hists with
    | Some h -> h
    | None -> Alcotest.fail "no equiv.replay_len histogram"
  in
  match h.exemplar with
  | None -> Alcotest.fail "replay_len histogram has no exemplar"
  | Some (v, ev) ->
    Alcotest.(check int) "exemplar value is the histogram max" h.max v;
    (* the exemplar's event id must be a tested image in the stream *)
    let img =
      List.find_opt
        (fun j ->
           C.Jsonx.int_field ~default:(-1) j "i" = ev
           && C.Jsonx.str_field j "e" = "image")
        items
    in
    (match img with
     | Some j ->
       Alcotest.(check string) "exemplar image was materialized" "test"
         (C.Jsonx.str_field j "action")
     | None -> Alcotest.fail "exemplar event id is not an image event")

let suite =
  [ Alcotest.test_case "explain golden text (level-hash)" `Quick
      (test_golden_explain batch);
    Alcotest.test_case "explain golden text (level-hash, stream)" `Quick
      (test_golden_explain stream);
    QCheck_alcotest.to_alcotest prop_chains_resolve;
    Alcotest.test_case "explain acceptance, default 200-op config" `Slow
      test_acceptance_default_config;
    Alcotest.test_case "bug slices list flushes (level-hash, 200 ops)" `Quick
      test_slice_lists_flushes;
    Alcotest.test_case "histogram exemplar links to its image" `Quick
      test_exemplar_links_to_image;
    Alcotest.test_case "resolve picks first verdict, last class" `Quick
      test_resolve_picks ]
