(* Structured event log (DESIGN §8): the forensics backbone. One record
   per semantically meaningful occurrence in a pipeline run — op
   recorded, condition inferred, crash image generated/deferred, oracle
   built, verdict reached, cluster emitted — each with a
   sequential id so later events can reference earlier ones and a
   post-hoc reader (`witcher explain`) can reconstruct the provenance
   chain image -> fence/op -> violated condition -> path-signature class
   -> verdict -> cluster without re-executing anything.

   The sink is process-local and caller-owned: the CLI (or a campaign
   worker) calls [start]/[stop] around [Engine.run]; the engine itself
   never resets it, unlike [Metrics.default]. Emission sites across the
   pipeline guard on [enabled] — a single ref read — so a run without a
   sink pays one predictable branch per would-be event and allocates
   nothing.

   Records are buffered in memory and written as JSONL at [stop]: one
   object per line, `{"i": <id>, "e": "<kind>", ...fields}`. Ids are
   sequential per sink (= per shard in a campaign); a merged stream is
   re-scoped on its `run` header events, whose "v" field versions the
   schema. Events deliberately carry no wall-clock timestamps: the log of
   a run is a pure function of (store, seed, config), which is what lets
   a golden file pin `explain` output byte-for-byte. *)

type t = {
  mutable seq : int;
  mutable rev_items : Jsonx.t list;   (* newest first *)
  path : string option;               (* write JSONL here at [stop] *)
  conds : (string, int) Hashtbl.t;    (* "rule|watch|req" -> cond event id *)
}

(* Schema version, carried on every `run` header event. Bump on any
   incompatible change to event kinds or field meanings; readers must
   skip runs with a version they do not know. *)
let version = 1

let on = ref false
let current : t option ref = ref None

(* Id of the most recent `image` event with action "test": the
   pipeline is fused (one image alive at a time, checked synchronously),
   so the verdict reached inside [on_image] — and any metric observed
   during the replay — belongs to this image. -1 when no sink. *)
let last_image_id = ref (-1)

let enabled () = !on

let start ?path () =
  current := Some { seq = 0; rev_items = []; path; conds = Hashtbl.create 32 };
  last_image_id := -1;
  on := true

let emit ?(fields = []) kind =
  match !current with
  | None -> -1
  | Some s ->
    let id = s.seq in
    s.seq <- id + 1;
    s.rev_items <-
      Jsonx.Obj (("i", Jsonx.Int id) :: ("e", Jsonx.Str kind) :: fields)
      :: s.rev_items;
    id

(* Interned violated-condition event: the first image referencing a
   (rule, watch site, req site) triple emits one `cond` record; every
   later image at the same condition reuses its id. *)
let cond_id ~rule ~watch ~req =
  match !current with
  | None -> -1
  | Some s ->
    let key = rule ^ "|" ^ watch ^ "|" ^ req in
    (match Hashtbl.find_opt s.conds key with
     | Some id -> id
     | None ->
       let id =
         emit "cond"
           ~fields:
             [ ("rule", Jsonx.Str rule); ("watch", Jsonx.Str watch);
               ("req", Jsonx.Str req) ]
       in
       Hashtbl.add s.conds key id;
       id)

(* Events emitted so far, oldest first. Usable while the sink is live
   (`run -v` renders its footer from the in-memory stream). *)
let items () =
  match !current with None -> [] | Some s -> List.rev s.rev_items

(* Close the sink: write the JSONL shard if a path was given, return the
   events, and disable emission. Never raises on I/O problems — losing a
   forensics shard must not fail the run that produced it. *)
let stop () =
  let its = items () in
  (match !current with
   | Some { path = Some p; _ } ->
     (try
        let oc = open_out p in
        List.iter
          (fun j ->
             output_string oc (Jsonx.to_string j);
             output_char oc '\n')
          its;
        close_out oc
      with Sys_error _ -> ())
   | _ -> ());
  current := None;
  on := false;
  last_image_id := -1;
  its
