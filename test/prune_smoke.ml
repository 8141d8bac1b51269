(* End-to-end pruning smoke check, run by the `prune-smoke` dune alias
   around a tiny `witcher campaign --prune representative` sweep. Two
   modes:

   - `pre <dir>`: after the initial sweep, assert every journal record
     carries the representative-policy job key and a prune block with
     the class/representative/elision/expansion counters; then truncate
     the journal to its first half, simulating a sweep killed
     mid-campaign (possibly mid-expansion — expansions happen inside a
     job, so the cut line is arbitrary relative to them).
   - `post <dir>`: after `--resume` re-ran exactly the missing keys,
     assert the journal again covers the full matrix with no duplicate
     keys, every record still passes the prune-block checks, and the
     aggregated report.json sums the prune columns. *)

module C = Campaign
module J = Obs.Jsonx

let fail fmt =
  Printf.ksprintf
    (fun s ->
       prerr_endline ("prune-smoke: FAIL: " ^ s);
       exit 1)
    fmt

let pass fmt = Printf.ksprintf (fun s -> print_endline ("prune-smoke: " ^ s)) fmt

let check_record (r : C.Journal.record) =
  let who = C.Job.describe r.spec in
  if r.status <> C.Journal.Job_ok then fail "job %s did not finish ok" who;
  if r.spec.prune <> Prune.Policy.Representative then
    fail "job %s does not carry the representative policy" who;
  (* the policy is part of the resume key, so a pre-prune (exhaustive)
     journal can never satisfy a representative-mode matrix by accident *)
  if r.key = C.Job.key { r.spec with prune = Prune.Policy.Exhaustive } then
    fail "key of %s does not depend on the prune policy" who;
  if r.key <> C.Job.key r.spec then
    fail "journal key of %s does not round-trip through the spec" who;
  let result =
    match r.result with Some j -> j | None -> fail "record %s has no result" who
  in
  let prune =
    match J.member "prune" result with
    | Some p -> p
    | None -> fail "record %s has no prune block" who
  in
  if J.str_field prune "policy" <> "representative" then
    fail "record %s prune.policy is not representative" who;
  let geti k =
    match Option.bind (J.member k prune) J.to_int_opt with
    | Some n -> n
    | None -> fail "record %s prune block lacks integer %S" who k
  in
  let classes = geti "classes" in
  let reps = geti "reps" in
  let deferred = geti "deferred" in
  let elided = geti "elided" in
  let expansions = geti "expansions" in
  if classes <= 0 then fail "record %s has no equivalence classes" who;
  if reps <= 0 then fail "record %s validated no representatives" who;
  if elided < 0 || elided > deferred then
    fail "record %s elided %d of %d deferred" who elided deferred;
  if expansions < 0 then fail "record %s has a negative expansion count" who;
  (classes, elided, expansions)

let load dir =
  let records = C.Journal.load (Filename.concat dir "journal.jsonl") in
  if records = [] then fail "no journal records in %s" dir;
  records

let keys_path dir = Filename.concat dir "prune-smoke-keys.txt"

let pre dir =
  let records = load dir in
  let totals = List.map check_record records in
  let classes = List.fold_left (fun a (c, _, _) -> a + c) 0 totals in
  let elided = List.fold_left (fun a (_, e, _) -> a + e) 0 totals in
  let expansions = List.fold_left (fun a (_, _, x) -> a + x) 0 totals in
  pass "%d jobs ok: %d classes, %d images elided, %d expansions recorded"
    (List.length records) classes elided expansions;
  (* remember the full matrix, then cut the journal in half *)
  let keys =
    List.sort compare (List.map (fun (r : C.Journal.record) -> r.key) records)
  in
  let oc = open_out (keys_path dir) in
  List.iter (fun k -> output_string oc (k ^ "\n")) keys;
  close_out oc;
  let journal = Filename.concat dir "journal.jsonl" in
  let ic = open_in journal in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  let lines = List.rev !lines in
  let keep = (List.length lines + 1) / 2 in
  let oc = open_out journal in
  List.iteri
    (fun i l -> if i < keep then output_string oc (l ^ "\n"))
    lines;
  close_out oc;
  pass "journal truncated to %d/%d records for the resume leg" keep
    (List.length lines)

let post dir =
  let records = load dir in
  List.iter (fun r -> ignore (check_record r)) records;
  let keys =
    List.sort compare (List.map (fun (r : C.Journal.record) -> r.key) records)
  in
  if List.length (List.sort_uniq compare keys) <> List.length keys then
    fail "resume re-ran an already-completed job (duplicate journal keys)";
  let ic = open_in (keys_path dir) in
  let expected = ref [] in
  (try
     while true do
       expected := input_line ic :: !expected
     done
   with End_of_file -> ());
  close_in ic;
  let expected = List.rev !expected in
  if keys <> expected then
    fail "resumed journal covers %d keys, initial sweep had %d"
      (List.length keys) (List.length expected);
  (* the aggregated report must carry the summed prune columns *)
  let report = Filename.concat dir "report.json" in
  let ic = open_in_bin report in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  (match J.of_string s with
   | Error e -> fail "report.json does not parse: %s" e
   | Ok j ->
     (match J.member "rows" j with
      | Some (J.List rows) ->
        let col k =
          List.fold_left (fun a r -> a + J.int_field r k) 0 rows
        in
        if col "prune_classes" <= 0 then
          fail "report.json aggregates zero prune classes";
        if col "images_elided" < 0 || col "prune_expansions" < 0 then
          fail "report.json prune columns are negative"
      | _ -> fail "report.json has no rows"));
  pass "resume completed the matrix: %d jobs, no duplicates, report sums ok"
    (List.length records)

let () =
  match Sys.argv with
  | [| _; "pre"; dir |] -> pre dir
  | [| _; "post"; dir |] -> post dir
  | _ ->
    prerr_endline "usage: prune_smoke (pre|post) <out-dir>";
    exit 2
