(* Bug-report clustering (§4.4). Many failing images share one root cause;
   Witcher clusters them by operation type and execution path of the
   crashed operation, and we additionally record the violated condition's
   static sites, which lets the engine map clusters back to the seeded
   ground-truth defects. *)

type kind = C_ordering | C_atomicity

(* The paper's names for the two kinds (Table 4/5 columns), in every
   report, journal and event that names one. *)
let kind_name = function C_ordering -> "C-O" | C_atomicity -> "C-A"

type report = {
  store_name : string;
  kind : kind;
  op_desc : string;         (* operation type of the crashed op *)
  path_hash : int;
  watch_sid : string;       (* persisted-too-early site *)
  req_sid : string;         (* left-unpersisted / lost site *)
  rule : string;
  mutable count : int;      (* failing images in this cluster *)
  example_crash_tid : int;
  example_first_diff : int;
  example_got : Output.t;
  example_expected : Output.t;
  crashed : bool;           (* resumption crashed visibly *)
}

type t = {
  store_name : string;
  (* keyed on the pruning layer's path signature — bug-report clusters and
     pruning equivalence classes are one notion (DESIGN §7) *)
  clusters : (Prune.Path_sig.t, report) Hashtbl.t;
}

let create ~store_name = { store_name; clusters = Hashtbl.create 64 }

let op_kind_of_desc desc =
  match String.index_opt desc '(' with
  | Some i -> String.sub desc 0 i
  | None -> desc

(* The signature of an image's would-be cluster: also what Engine feeds
   the [Prune.Equiv_class] registry, so a class and a cluster coincide.
   [op_kind] is the interned operation type of the crashed op. *)
let signature ~op_kind (image : Crash_gen.image) =
  let watch, req = Crash_gen.violation_sids image.viol in
  Prune.Path_sig.make ~op_kind ~path:image.path_hash ~watch ~req

let add t ~(image : Crash_gen.image) ~op_kind ~(verdict : Equiv.verdict) =
  match verdict with
  | Equiv.Consistent -> ()
  | Equiv.Inconsistent v ->
    let watch_sid, req_sid = Crash_gen.violation_sids image.viol in
    let kind, rule =
      match image.viol with
      | Crash_gen.Ordering o -> C_ordering, Infer.rule_name o.rule
      | Crash_gen.Atomicity _ -> C_atomicity, "PA1"
      | Crash_gen.Unpersisted_epoch _ -> C_ordering, "EPOCH"
    in
    let key = signature ~op_kind image in
    match Hashtbl.find_opt t.clusters key with
    | Some r -> r.count <- r.count + 1
    | None ->
      Hashtbl.add t.clusters key
        { store_name = t.store_name; kind; op_desc = Nvm.Sid.to_string op_kind;
          path_hash = image.path_hash;
          watch_sid = Nvm.Sid.to_string watch_sid;
          req_sid = Nvm.Sid.to_string req_sid; rule;
          count = 1;
          example_crash_tid = image.crash_tid;
          example_first_diff = v.first_diff;
          example_got = v.got;
          example_expected = v.expect_committed;
          crashed = v.crashed }

let reports t =
  Hashtbl.fold (fun _ r acc -> r :: acc) t.clusters []
  |> List.sort (fun a b ->
      compare (a.watch_sid, a.req_sid, a.op_desc) (b.watch_sid, b.req_sid, b.op_desc))

(* Reports with their path-signature keys, in [reports] order but with
   the stable class key breaking (watch, req, op) ties: [reports]' order
   of tied clusters leaks Hashtbl iteration over process-local sid ints,
   which unbounded and windowed runs intern on different schedules, and
   the event log must be a pure function of (store, seed, config).

   Each report is flagged when it is the first of its (kind, watch site)
   in this order: the root-cause election that [root_causes] and the
   event log's `cluster` events both read. A root cause is the static
   site that persisted too early (or whose epoch vanished), per kind;
   multiple clusters and site pairs share one (§7.4), and their count is
   the one comparable to the paper's Table 4/5 bug numbers. *)
let reports_keyed t =
  let seen = Hashtbl.create 16 in
  Hashtbl.fold (fun k r acc -> (Prune.Path_sig.stable_key k, r) :: acc)
    t.clusters []
  |> List.sort (fun (ka, a) (kb, b) ->
      compare (a.watch_sid, a.req_sid, a.op_desc, ka)
        (b.watch_sid, b.req_sid, b.op_desc, kb))
  |> List.map (fun (k, r) ->
      let root = not (Hashtbl.mem seen (r.kind, r.watch_sid)) in
      if root then Hashtbl.add seen (r.kind, r.watch_sid) ();
      (k, root, r))

let n_clusters t = Hashtbl.length t.clusters

let root_causes t =
  List.filter_map (fun (_, root, r) -> if root then Some r else None)
    (reports_keyed t)
  |> List.sort (fun a b -> compare (a.watch_sid, a.req_sid) (b.watch_sid, b.req_sid))

(* Distinct static-site pairs, a tighter proxy for distinct root causes
   than raw clusters (multiple clusters may share a root cause, §7.4).
   Representative per pair is the first in [reports_keyed] order, for
   the same cross-engine determinism as [root_causes]. *)
let site_pairs t =
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun (_, _, r) ->
       if Hashtbl.mem seen (r.kind, r.watch_sid, r.req_sid) then None
       else begin
         Hashtbl.add seen (r.kind, r.watch_sid, r.req_sid) ();
         Some r
       end)
    (reports_keyed t)
  |> List.sort (fun a b -> compare (a.watch_sid, a.req_sid) (b.watch_sid, b.req_sid))

let pp_report ppf (r : report) =
  Fmt.pf ppf "[%s] %s %s op=%s crash@%d first_diff=op%d got=%a expected=%a%s@,   persisted-early: %s@,   unpersisted:     %s"
    r.store_name (kind_name r.kind) r.rule r.op_desc r.example_crash_tid
    r.example_first_diff Output.pp r.example_got Output.pp r.example_expected
    (if r.crashed then " [visible crash]" else "")
    r.watch_sid r.req_sid
