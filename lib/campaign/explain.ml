(* `witcher explain`: post-hoc bug forensics from on-disk artifacts.

   Input is an event stream (a single run's `--events` file, or the
   merged per-worker shards of a campaign) and optionally a campaign
   journal. Nothing is re-executed: every fact below is read back from
   the [Obs.Event] records the pipeline emitted, joined on their ids —

     cluster --class--> verdict --image--> image --cond--> condition
                                    \--> slice, oracle, class record

   A stream is split into runs on its `run` header events (ids restart
   per shard, so they are only meaningful within a run); header versions
   the reader does not know are skipped rather than misread. Journals
   from before the event log (PR 6 era) still explain, degraded to their
   bug-report lines plus a "no event data" note. *)

module W = Witcher

(* ---------- small Jsonx helpers ---------- *)

let bool_field ?(default = false) j k =
  match Jsonx.member k j with Some (Jsonx.Bool b) -> b | _ -> default

let str = Jsonx.str_field
let int_f = Jsonx.int_field

(* ---------- stream model ---------- *)

(* A run and the indexes every bug's resolution reads, built in one pass
   over its events. *)
type run = {
  header : Jsonx.t;
  items : Jsonx.t list;            (* this run's events, oldest first *)
  by_id : (int, Jsonx.t) Hashtbl.t;
  ops : (int, string) Hashtbl.t;   (* op index -> description, last wins *)
  bad : (string, Jsonx.t) Hashtbl.t;  (* class -> first inconsistent verdict *)
  classes : (string, Jsonx.t) Hashtbl.t;  (* class -> last `class` record *)
  slices : (int, Jsonx.t) Hashtbl.t;  (* image id -> first slice *)
  oracles : (int, Jsonx.t) Hashtbl.t; (* crash op -> first oracle *)
}

type source =
  | Events of run list
  | Journal_only of Journal.record list  (* pre-event degradation *)

let is_kind k j = str j "e" = k

let index header items =
  let r =
    { header; items; by_id = Hashtbl.create 256; ops = Hashtbl.create 64;
      bad = Hashtbl.create 16; classes = Hashtbl.create 64;
      slices = Hashtbl.create 16; oracles = Hashtbl.create 16 }
  in
  let first tbl k j = if not (Hashtbl.mem tbl k) then Hashtbl.add tbl k j in
  List.iter
    (fun j ->
       Hashtbl.replace r.by_id (int_f ~default:(-1) j "i") j;
       match str j "e" with
       | "op" -> Hashtbl.replace r.ops (int_f j "op") (str j "desc")
       | "verdict" when not (bool_field j "consistent") ->
         first r.bad (str j "class") j
       | "class" -> Hashtbl.replace r.classes (str j "class") j
       | "slice" -> first r.slices (int_f ~default:(-1) j "image") j
       | "oracle" -> first r.oracles (int_f ~default:(-1) j "op") j
       | _ -> ())
    items;
  r

let split_runs items =
  let runs = ref [] in
  let cur = ref None in
  let flush () =
    match !cur with
    | Some (h, rev) ->
      runs := index h (List.rev rev) :: !runs;
      cur := None
    | None -> ()
  in
  List.iter
    (fun j ->
       if is_kind "run" j then begin
         flush ();
         (* only open a run scope for schema versions we understand *)
         if int_f j "v" = Obs.Event.version then cur := Some (j, [ j ])
       end
       else
         match !cur with
         | Some (h, rev) -> cur := Some (h, j :: rev)
         | None -> ())
    items;
  flush ();
  List.rev !runs

let parse_lines ic =
  let items = ref [] in
  (try
     while true do
       let line = input_line ic in
       if String.trim line <> "" then
         match Jsonx.of_string line with
         | Ok j -> items := j :: !items
         | Error _ -> ()
     done
   with End_of_file -> ());
  List.rev !items

let load_events_file path =
  let ic = open_in path in
  let items = parse_lines ic in
  close_in ic;
  split_runs items

(* Resolve an explain input path: a campaign output directory (merged
   events.jsonl, falling back to journal.jsonl), an events file, or a
   bare journal file. *)
let load path =
  if not (Sys.file_exists path) then Error (Printf.sprintf "%s: no such file" path)
  else if Sys.is_directory path then begin
    let ev = Filename.concat path "events.jsonl" in
    let jr = Filename.concat path "journal.jsonl" in
    if Sys.file_exists ev then Ok (Events (load_events_file ev))
    else if Sys.file_exists jr then Ok (Journal_only (Journal.load jr))
    else Error (Printf.sprintf "%s: neither events.jsonl nor journal.jsonl" path)
  end
  else begin
    let ic = open_in path in
    let first = try Some (input_line ic) with End_of_file -> None in
    close_in ic;
    match Option.map Jsonx.of_string first with
    | Some (Ok j) when Jsonx.member "e" j <> None ->
      Ok (Events (load_events_file path))
    | Some (Ok j) when Jsonx.member "job" j <> None ->
      Ok (Journal_only (Journal.load path))
    | _ -> Error (Printf.sprintf "%s: not an event stream or journal" path)
  end

(* ---------- provenance resolution ---------- *)

type bug = { b_run : run; b_cluster : Jsonx.t }

(* Every `cluster` event is a bug cluster (only inconsistent images
   cluster); stream order is deterministic, so bug numbering is too. *)
let bugs runs =
  List.concat_map
    (fun r ->
       List.filter_map
         (fun j -> if is_kind "cluster" j then Some { b_run = r; b_cluster = j } else None)
         r.items)
    runs

type forensics = {
  f_bug : bug;
  f_verdict : Jsonx.t option;   (* first inconsistent verdict of the class *)
  f_image : Jsonx.t option;
  f_cond : Jsonx.t option;
  f_slice : Jsonx.t option;
  f_oracle : Jsonx.t option;
  f_class : Jsonx.t option;     (* pruning-class record, representative mode *)
  f_ops : (int, string) Hashtbl.t;  (* op index -> description *)
}

let resolve (b : bug) =
  let r = b.b_run in
  let skey = str b.b_cluster "class" in
  let verdict = Hashtbl.find_opt r.bad skey in
  let by_ref j k =
    let id = int_f ~default:(-1) j k in
    if id < 0 then None else Hashtbl.find_opt r.by_id id
  in
  let image = Option.bind verdict (fun v -> by_ref v "image") in
  let cond = Option.bind image (fun i -> by_ref i "cond") in
  let image_id =
    match image with None -> -1 | Some i -> int_f ~default:(-1) i "i"
  in
  let slice = if image_id < 0 then None else Hashtbl.find_opt r.slices image_id in
  let oracle =
    Option.bind image (fun i ->
        Hashtbl.find_opt r.oracles (int_f ~default:(-1) i "crash_op"))
  in
  { f_bug = b; f_verdict = verdict; f_image = image; f_cond = cond;
    f_slice = slice; f_oracle = oracle;
    f_class = Hashtbl.find_opt r.classes skey; f_ops = r.ops }

(* Chain-resolution check, used by the qcheck property: every verdict
   must link to a real tested image whose condition id resolves, and
   every cluster must be backed by an inconsistent verdict of its class.
   Returns the first dangling link found. *)
let check_chains items =
  let runs = split_runs items in
  let problem = ref None in
  let fail fmt = Printf.ksprintf (fun s -> if !problem = None then problem := Some s) fmt in
  List.iter
    (fun r ->
       List.iter
         (fun j ->
            match str j "e" with
            | "verdict" ->
              let id = int_f ~default:(-1) j "image" in
              (match Hashtbl.find_opt r.by_id id with
               | None -> fail "verdict %d: dangling image id %d" (int_f j "i") id
               | Some img ->
                 if not (is_kind "image" img) || str img "action" <> "test" then
                   fail "verdict %d: image id %d is not a tested image" (int_f j "i") id
                 else begin
                   let cid = int_f ~default:(-1) img "cond" in
                   match Hashtbl.find_opt r.by_id cid with
                   | Some c when is_kind "cond" c -> ()
                   | _ -> fail "image %d: dangling cond id %d" id cid
                 end)
            | "cluster" ->
              let skey = str j "class" in
              if not (Hashtbl.mem r.bad skey) then fail "cluster %d: no inconsistent verdict for class %s" (int_f j "i") skey
            | "slice" ->
              let id = int_f ~default:(-1) j "image" in
              (match Hashtbl.find_opt r.by_id id with
               | Some img when is_kind "image" img -> ()
               | _ -> fail "slice %d: dangling image id %d" (int_f j "i") id)
            | _ -> ())
         r.items)
    runs;
  match !problem with None -> Ok (List.length runs) | Some s -> Error s

(* ---------- rendering ---------- *)

let skey_short s = if String.length s > 12 then String.sub s 0 12 else s

let bug_headline i (b : bug) =
  let c = b.b_cluster in
  Printf.sprintf "bug %d: %s seed %d — %s %s op=%s  class %s%s" (i + 1)
    (str b.b_run.header "store") (int_f b.b_run.header "seed")
    (str c "kind") (str c "rule") (str c "op")
    (skey_short (str c "class"))
    (if bool_field c "root" then "  [root cause]" else "")

(* The `run -v` footer: one line per bug, read straight off the event
   stream so the CLI summary and `explain` can never disagree. *)
let bug_footer_lines items =
  let runs = split_runs items in
  List.mapi
    (fun i b ->
       let f = resolve b in
       let prov =
         match f.f_verdict with
         | None -> "?"
         | Some v ->
           str v "prov" ^ (if bool_field v "memo" then "+memo" else "")
       in
       Printf.sprintf "%s  first_diff=op%d prov=%s"
         (bug_headline i b)
         (int_f f.f_bug.b_cluster "first_diff")
         prov)
    (bugs runs)

let render_bug_text buf i (b : bug) =
  let f = resolve b in
  let c = b.b_cluster in
  let add fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s) fmt in
  add "%s\n" (bug_headline i b);
  add "  sites      : persisted-early %s | unpersisted %s\n" (str c "watch")
    (str c "req");
  add "  cluster    : %d failing image(s), example crash tid %d\n"
    (int_f c "count") (int_f c "crash");
  (match f.f_image with
   | None -> add "  (no tested-image event for this cluster's class)\n"
   | Some img ->
     let k = int_f img "crash_op" in
     let desc =
       match Hashtbl.find_opt f.f_ops k with Some d -> d | None -> "?"
     in
     add "  crash      : before fence tid %d in op %d %s\n" (int_f img "fence")
       k desc;
     let extras =
       match Jsonx.member "extras" img with Some (Jsonx.List l) -> l | _ -> []
     in
     add "  persistence: %d store(s) guaranteed, %d in-flight at the fence; \
          %d extra persisted\n"
       (int_f img "guaranteed") (int_f img "dirty") (List.length extras);
     List.iter
       (fun e ->
          add "      + tid %d %s @%d+%d\n" (int_f e "tid") (str e "sid")
            (int_f e "addr") (int_f e "len"))
       extras);
  (match f.f_cond with
   | None -> ()
   | Some cond ->
     add "  condition  : %s — persist %s before making %s visible\n"
       (str cond "rule") (str cond "req") (str cond "watch"));
  (match f.f_slice with
   | None -> ()
   | Some s ->
     let entries =
       match Jsonx.member "entries" s with Some (Jsonx.List l) -> l | _ -> []
     in
     add "  slice      : %d event(s) touching the condition's addresses \
          before the crash%s\n"
       (List.length entries)
       (if bool_field s "truncated" then " (tail shown)" else "");
     List.iter
       (function
         | Jsonx.List
             [ Jsonx.Int tid; Jsonx.Str kind; Jsonx.Str sid; Jsonx.Int addr;
               Jsonx.Int len; Jsonx.Int op ] ->
           add "      tid %-5d %-5s %-40s @%d+%d (op %d)\n" tid kind sid addr
             len op
         | _ -> ())
       entries);
  (match f.f_verdict with
   | None -> add "  (no verdict event for this cluster's class)\n"
   | Some v ->
     let fd = int_f v "first_diff" in
     let desc =
       match Hashtbl.find_opt f.f_ops fd with Some d -> d | None -> "?"
     in
     add "  divergence : op %d %s: got %s | committed %s | rolled-back %s%s\n"
       fd desc (str v "got")
       (str v "expect_committed")
       (str v "expect_rolled_back")
       (if bool_field v "crashed" then "  [visible crash]" else "");
     (match f.f_oracle with
      | Some o when str o "via" = "ckpt" ->
        add "  oracle     : rolled-back oracle resumed from checkpoint at op %d\n"
          (int_f o "from_op")
      | Some _ -> add "  oracle     : rolled-back oracle built by full re-run\n"
      | None -> ());
     let prov = str v "prov" in
     let memo = if bool_field v "memo" then "; memoized verdict" else "" in
     (match f.f_class with
      | None -> add "  provenance : %s%s\n" prov memo
      | Some cl ->
        add "  provenance : %s%s; class of %d member(s), %d deferred, \
             %d spot-check(s)%s\n"
          prov memo (int_f cl "members") (int_f cl "deferred")
          (int_f cl "spots")
          (if bool_field cl "promoted" then ", promoted" else "")))

let no_event_note =
  "note: no event data recorded (pre-forensics journal or a campaign run \
   without --events);\nshowing journal bug reports only — re-run with \
   --events for full forensics.\n"

let render_journal_only buf (records : Journal.record list) =
  Buffer.add_string buf no_event_note;
  let i = ref 0 in
  List.iter
    (fun (r : Journal.record) ->
       match r.result with
       | None -> ()
       | Some res ->
         let reports =
           match Jsonx.member "bug_reports" res with
           | Some (Jsonx.List l) -> l
           | _ -> []
         in
         List.iter
           (fun rep ->
              incr i;
              Buffer.add_string buf
                (Printf.sprintf
                   "bug %d: %s %s %s op=%s watch=%s req=%s count=%d\n" !i
                   (str res "store") (str rep "kind") (str rep "rule")
                   (str rep "op") (str rep "watch_sid") (str rep "req_sid")
                   (int_f rep "count")))
           reports)
    records

(* Render the full text report. [bug] (1-based) restricts to one bug;
   [Error] means the selection was out of range. *)
let render_text ?bug source =
  let buf = Buffer.create 1024 in
  (match source with
   | Journal_only records ->
     render_journal_only buf records;
     (match bug with
      | Some _ ->
        Buffer.add_string buf "(--bug selection requires event data)\n"
      | None -> ())
   | Events runs ->
     let all = bugs runs in
     (match all with
      | [] -> Buffer.add_string buf "no bug clusters in the event stream.\n"
      | _ ->
        let selected =
          match bug with
          | None -> List.mapi (fun i b -> (i, b)) all
          | Some k ->
            (match List.nth_opt all (k - 1) with
             | Some b -> [ (k - 1, b) ]
             | None -> [])
        in
        if selected = [] then
          Buffer.add_string buf
            (Printf.sprintf "no such bug: %d (stream has %d)\n"
               (Option.value ~default:0 bug) (List.length all))
        else
          List.iteri
            (fun n (i, b) ->
               if n > 0 then Buffer.add_char buf '\n';
               render_bug_text buf i b)
            selected));
  Buffer.contents buf

(* JSON rendering: the resolved chain per bug, raw event objects under
   stable keys — machine-readable without re-deriving any joins. *)
let render_json ?bug source =
  match source with
  | Journal_only records ->
    Jsonx.Obj
      [ ("events", Jsonx.Bool false);
        ("note", Jsonx.Str "no event data recorded");
        ("bugs",
         Jsonx.List
           (List.concat_map
              (fun (r : Journal.record) ->
                 match r.result with
                 | None -> []
                 | Some res ->
                   (match Jsonx.member "bug_reports" res with
                    | Some (Jsonx.List l) -> l
                    | _ -> []))
              records)) ]
  | Events runs ->
    let all = bugs runs in
    let selected =
      match bug with
      | None -> all
      | Some k -> (match List.nth_opt all (k - 1) with Some b -> [ b ] | None -> [])
    in
    let opt k = function None -> [] | Some j -> [ (k, j) ] in
    Jsonx.Obj
      [ ("events", Jsonx.Bool true);
        ("bugs",
         Jsonx.List
           (List.map
              (fun b ->
                 let f = resolve b in
                 Jsonx.Obj
                   ([ ("store", Jsonx.Str (str b.b_run.header "store"));
                      ("seed", Jsonx.Int (int_f b.b_run.header "seed"));
                      ("cluster", b.b_cluster) ]
                    @ opt "verdict" f.f_verdict
                    @ opt "image" f.f_image
                    @ opt "cond" f.f_cond
                    @ opt "slice" f.f_slice
                    @ opt "oracle" f.f_oracle
                    @ opt "class" f.f_class))
              selected)) ]
