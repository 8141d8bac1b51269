(* Crash NVM image generation (§4.3). A second walk over the trace drives
   the cache/NVM simulator; before executing each fence — the only points
   where the guaranteed-persistent state changes — every likely-correctness
   condition that a store of the ending epoch could violate is checked for
   feasibility:

   - ordering P(X) -hb-> W(Y): a store S_Y to the watched cell happened
     this epoch; the latest store S_X to the required cell is not yet
     guaranteed; persisting closure(S_Y) without S_X is feasible under
     per-line prefix order. The image persists Y but not X.
   - atomicity AP(X, Y): two stores to distinct guardian cells are both
     unguaranteed before the fence; two images persist exactly one of
     them.

   Each feasible violation is materialized into a concrete pool image and
   handed to [on_image] immediately (pipeline-fused with output
   equivalence checking, so only one image is alive at a time).

   Images are deduplicated by the key of the extra persist-set within a
   fence (a crash point), in a set emptied at every fence, and capped per
   static site pair, since thousands of dynamic violations share a root
   cause (§4.4); generated-vs-tested counts are both reported. A
   candidate's persist-set is a [Crash_sim.closure] slice, keyed and
   avoid-checked without building its tid list; the list is built only
   for an image that is materialized or logged. The key,
   [Crash_sim.closure_key], hashes the closure's first 10 tids, so two
   closures of 10 or more stores on one line at one fence share a key and
   the second is dropped as a duplicate.

   The walk is index-based (kind tags + int fields, no event
   reconstruction), the per-word latest-store map is three flat columns
   indexed by 8-byte word, allocated once per walk up to the highest word
   a req cell touches, and sids are interned ints throughout —
   [violation] carries [Sid.t]; report layers convert back to strings.
   The walk reads the condition set's word indexes, which [Infer.seal]
   builds, so it refuses a set that is not sealed.

   The walk pays per condition visit only array reads, and allocates
   only for a feasible candidate. A store visits every condition that
   watches its words; the epoch keeps each condition once, at the first
   store that watched it, by stamping the condition's dense [Infer] id
   with the fence count (ids are unique per condition, so this is the
   structural dedup). The epoch itself is three reusable int columns —
   entry kind, condition or guardian id, store tid — filled in
   registration order, emptied at each fence and read newest entry
   first, the order of the list it replaces; registering an entry
   allocates nothing. At the fence, an ordering entry reads the latest
   store to its req cell as a bare tid and asks the simulator for a
   feasible closure before it builds a violation, a site key or a sid;
   most entries end there, their req store already guaranteed. *)

open Nvm

type violation =
  | Ordering of {
      rule : Infer.rule;
      watch_sid : Sid.t;    (* the store that persisted too early *)
      req_sid : Sid.t;      (* the store left unpersisted *)
      watch_tid : int;
      req_tid : int;
    }
  | Atomicity of {
      persisted_sid : Sid.t;
      lost_sid : Sid.t;
      persisted_tid : int;
      lost_tid : int;
    }
  | Unpersisted_epoch of {
      (* nothing of the current epoch was evicted: every dirty store is
         lost at once — the state that exposes missing-persist and
         premature-side-effect (e.g. free-before-unlink) bugs *)
      fence_sid : Sid.t;
      first_lost_sid : Sid.t;
    }

let violation_sids = function
  | Ordering o -> (o.watch_sid, o.req_sid)
  | Atomicity a -> (a.persisted_sid, a.lost_sid)
  | Unpersisted_epoch u -> (u.fence_sid, u.first_lost_sid)

type image = {
  img : Pmem.t;
  crash_tid : int;   (* tid of the fence we crash before *)
  crash_op : int;    (* trace op index containing the crash *)
  viol : violation;
  path_hash : int;   (* execution path of the crashed op up to the crash *)
  extras : int array;  (* sorted store tids persisted beyond the guaranteed
                          base; drives fence-batched verdict inheritance *)
  digest : int;      (* 64-bit content digest; keys the verdict memo *)
}

type stats = {
  mutable candidates : int;      (* feasible violations found *)
  mutable generated : int;       (* distinct images *)
  mutable deferred : int;        (* eligible but elided by the decide hook *)
  mutable tested : int;          (* images passed to on_image (post-cap) *)
  mutable bytes_materialized : int;  (* bytes copied to build the images *)
  per_op_images : (int, int) Hashtbl.t;  (* op index -> images generated *)
}

(* A candidate eligible image, described before materialization: what the
   pruning layer's decide hook sees. [(cd_fence_tid, cd_key)] identifies
   the image — it is exactly the dedup key — and is stable across
   generation passes over the same trace, which is what lets Engine re-run
   [generate] to materialize the deferred members of a promoted class. *)
type cand = {
  cd_fence_tid : int;   (* tid of the fence we crash before *)
  cd_crash_op : int;    (* trace op index containing the crash *)
  cd_key : int;         (* [Crash_sim.closure_key] of the extra
                           persist-set (its first 10 tids); 0 = baseline *)
  cd_viol : violation;
  cd_path_sig : int;    (* path digest truncated to the last [sig_depth]
                           sites; the full [path_hash] at depth 0 *)
}

type cfg = {
  max_images : int;        (* global budget of eligible images *)
  per_site_cap : int;      (* eligible images per (sid, sid, kind) site *)
  max_pa_pairs_per_fence : int;
}

let default_cfg = { max_images = 4000; per_site_cap = 6; max_pa_pairs_per_fence = 16 }

(* The stores' candidates of the current fence epoch, one entry per
   index [0, ep_n) in registration order: [ep_kinds.(i)] is [k_cond] or
   [k_guardian], [ep_ids.(i)] the [Infer] condition or guardian id, and
   [ep_tids.(i)] the store that registered it. The columns grow by
   doubling and are kept across fences. *)
type epoch = {
  mutable ep_kinds : int array;
  mutable ep_ids : int array;
  mutable ep_tids : int array;
  mutable ep_n : int;
}

let k_cond = 0
let k_guardian = 1

let epoch_push ep kind id tid =
  let n = ep.ep_n in
  if n = Array.length ep.ep_kinds then begin
    let grow a =
      let b = Array.make (2 * n) 0 in
      Array.blit a 0 b 0 n;
      b
    in
    ep.ep_kinds <- grow ep.ep_kinds;
    ep.ep_ids <- grow ep.ep_ids;
    ep.ep_tids <- grow ep.ep_tids
  end;
  ep.ep_kinds.(n) <- kind;
  ep.ep_ids.(n) <- id;
  ep.ep_tids.(n) <- tid;
  ep.ep_n <- n + 1

(* The execution-path fold is shared with lib/prune so cluster keys and
   pruning classes digest identically (and stably across processes). *)
let path_hash_step = Prune.Path_sig.step

(* Incremental generator handle: [stream_feed] consumes one trace index,
   [stream_finish] settles the stats. Built so [generate] below is
   exactly "feed every index in order" — a windowed run feeding indices
   as they are appended gets the same candidate/image stream by
   construction. *)
type gen = {
  g_feed : int -> unit;
  g_stopped : unit -> bool;
  g_finish : unit -> stats;
  g_sim : Crash_sim.t;
}

(* [sig_depth] > 0 truncates the per-image path digest to the op's last
   [sig_depth] load/store sites: long-path ops (rehashes, splits) whose
   tails agree then share a pruning class even when their prefixes differ.
   Only the pruning signature coarsens — [path_hash], and so cluster keys,
   always digest the full path. Depth 0 (default) keeps both identical. *)
let stream_create ?(cfg = default_cfg) ?(decide = fun (_ : cand) -> `Test)
    ?(pass = 0) ?(sig_depth = 0) ~trace ~(conds : Infer.t) ~pool_size
    ~on_image () =
  if not (Infer.sealed conds) then
    invalid_arg "Crash_gen.stream_create: the condition set is not sealed";
  let sim = Crash_sim.create ~trace ~pool_size in
  let stats =
    { candidates = 0; generated = 0; deferred = 0; tested = 0;
      bytes_materialized = 0; per_op_images = Hashtbl.create 64 }
  in
  (* 8-byte word -> tid/addr/len of the latest store touching it, tid
     -1 = none, for the words up to the highest a req cell touches:
     [latest_store_to] reads no other word, so a store above it is not
     recorded. The addr/len columns shadow the store's trace fields so
     [latest_store_to] never reads the trace — over a windowed ring the
     latest store to a word may be long retired, and still unguaranteed
     (the simulator holds it), and these probes must not fault on it. *)
  let top_word = ref (-1) in
  for id = 0 to Infer.n_ordering conds - 1 do
    top_word :=
      max !top_word
        ((Infer.req_addr conds id + Infer.req_len conds id - 1) lsr 3)
  done;
  let top_word = !top_word in
  let last_store_word = Array.make (top_word + 1) (-1) in
  let last_store_addr = Array.make (top_word + 1) 0 in
  let last_store_len = Array.make (top_word + 1) 0 in
  let epoch =
    { ep_kinds = Array.make 64 0; ep_ids = Array.make 64 0;
      ep_tids = Array.make 64 0; ep_n = 0 }
  in
  (* Condition id -> the number of the fence whose epoch holds the
     condition. Fences count from 1, so a stale stamp never matches. The
     set is sealed, so every id is below [n_ordering conds]. *)
  let stamps = Array.make (Infer.n_ordering conds) 0 in
  let n_fence = ref 1 in
  let site_count : (int * int * int, int) Hashtbl.t = Hashtbl.create 256 in
  (* Keys of the images admitted at the fence being processed: admission
     happens only there, so a fence's keys are never consulted again. *)
  let img_seen : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let path_hash = ref 0 in
  (* Per-op window of load/store sids backing the truncated signature.
     Maintained only when sig_depth > 0; [cur_sig] is refreshed once per
     fence (the only points that mint images). *)
  let op_sites = ref (Array.make 64 0) in
  let op_nsites = ref 0 in
  let push_site sid =
    if !op_nsites >= Array.length !op_sites then begin
      let b = Array.make (2 * Array.length !op_sites) 0 in
      Array.blit !op_sites 0 b 0 !op_nsites;
      op_sites := b
    end;
    !op_sites.(!op_nsites) <- sid;
    incr op_nsites
  in
  let cur_sig = ref 0 in
  let refresh_sig () =
    if sig_depth <= 0 then cur_sig := !path_hash
    else begin
      let n = !op_nsites in
      let start = if n > sig_depth then n - sig_depth else 0 in
      let h = ref 0 in
      for i = start to n - 1 do
        h := path_hash_step !h !op_sites.(i)
      done;
      cur_sig := !h
    end
  in
  let stop = ref false in
  let bump_op_count op =
    Hashtbl.replace stats.per_op_images op
      (1 + Option.value ~default:0 (Hashtbl.find_opt stats.per_op_images op))
  in
  (* Tid of the latest store whose range overlaps the cell, -1 if none:
     O(words of cell) array reads against the shadow columns, identical
     values to the store's trace fields and valid even if the store's
     trace segment has been retired. Allocation-free. *)
  let latest_store_to addr len =
    let best = ref (-1) in
    for w = addr lsr 3 to (addr + len - 1) lsr 3 do
      let tid = last_store_word.(w) in
      if tid > !best
      && Infer.overlap last_store_addr.(w) last_store_len.(w) addr len
      then best := tid
    done;
    !best
  in
  (* Every store a fence's candidates name (this epoch's stores, closure
     members) is unguaranteed while the fence is processed, so its sid
     comes from the simulator, which holds it even after the window has
     retired its segment. *)
  let sid_of_store tid = Crash_sim.store_sid sim tid in
  (* Event-log record for an eligible image, tested or deferred. Emitted
     here, not in Engine: only the generator holds the simulator state
     (guaranteed/in-flight counts) and the extra persist-set that define
     the image's persistence-interval timeline. [pass] distinguishes the
     first generation walk (0) from expansion-wave re-walks (>= 1). *)
  let ev_image ~action ~fence_tid ~op ~key ~viol ~extras ~digest =
    (* a deferred candidate was already logged by the first walk; waves
       (pass > 0) re-log only what they actually materialize *)
    if Obs.Event.enabled () && not (action = "defer" && pass > 0) then begin
      let extras = Lazy.force extras in
      let rule =
        match viol with
        | Ordering o -> Infer.rule_name o.rule
        | Atomicity _ -> "PA1"
        | Unpersisted_epoch _ -> "EPOCH"
      in
      let watch, req = violation_sids viol in
      let cid =
        Obs.Event.cond_id ~rule ~watch:(Sid.to_string watch)
          ~req:(Sid.to_string req)
      in
      let extras_j =
        Obs.Jsonx.List
          (List.map
             (fun tid ->
                let addr, len = Crash_sim.store_range sim tid in
                Obs.Jsonx.Obj
                  [ ("tid", Obs.Jsonx.Int tid);
                    ("sid", Obs.Jsonx.Str (Sid.to_string (sid_of_store tid)));
                    ("addr", Obs.Jsonx.Int addr);
                    ("len", Obs.Jsonx.Int len) ])
             extras)
      in
      let fields =
        [ ("action", Obs.Jsonx.Str action);
          ("crash_op", Obs.Jsonx.Int op);
          ("fence", Obs.Jsonx.Int fence_tid);
          ("key", Obs.Jsonx.Int key);
          ("path", Obs.Jsonx.Int !path_hash);
          ("cond", Obs.Jsonx.Int cid);
          ("guaranteed", Obs.Jsonx.Int (Crash_sim.n_guaranteed sim));
          ("dirty", Obs.Jsonx.Int (Crash_sim.n_dirty sim));
          ("pass", Obs.Jsonx.Int pass);
          ("extras", extras_j) ]
        @ (match digest with
           | None -> []
           | Some d -> [ ("digest", Obs.Jsonx.Int d) ])
      in
      let id = Obs.Event.emit "image" ~fields in
      if action = "test" then Obs.Event.last_image_id := id
    end
  in
  let site_ok key =
    let n = Option.value ~default:0 (Hashtbl.find_opt site_count key) in
    if n >= cfg.per_site_cap then false
    else begin
      Hashtbl.replace site_count key (n + 1);
      true
    end
  in
  (* The one admission path of a feasible violation, identified by
     [(fence_tid, key)] with [key] the [Crash_sim.closure_key] of its
     extra persist-set ([clo]; [None] and key 0 for the baseline image):
     count it, drop a key this fence already admitted, charge the image
     budget and the site cap, then let [decide] defer it or materialize
     and hand it to [on_image]. The extras list is built only for an
     image that is materialized or logged; a duplicate or capped
     candidate costs its key alone. *)
  let admit ~fence_tid ~op ~clo ~viol ~site_key =
    stats.candidates <- stats.candidates + 1;
    let key = match clo with None -> 0 | Some c -> Crash_sim.closure_key c in
    if not (Hashtbl.mem img_seen key) then begin
      Hashtbl.add img_seen key ();
      stats.generated <- stats.generated + 1;
      bump_op_count op;
      (* eligibility (budget + site caps) is decided before the prune
         hook, and the budget counts tested and deferred images alike, so
         the eligible stream is identical whatever [decide] elides — the
         invariant the deterministic expansion pass relies on *)
      if stats.tested + stats.deferred < cfg.max_images && site_ok site_key
      then begin
        let extras =
          lazy
            (match clo with
             | None -> []
             | Some c ->
               let l = Crash_sim.closure_tids c in
               Obs.Metrics.incr ~n:(List.length l) "crash_gen.extras_built";
               l)
        in
        match
          decide
            { cd_fence_tid = fence_tid; cd_crash_op = op; cd_key = key;
              cd_viol = viol; cd_path_sig = !cur_sig }
        with
        | `Defer ->
          stats.deferred <- stats.deferred + 1;
          ev_image ~action:"defer" ~fence_tid ~op ~key ~viol ~extras
            ~digest:None
        | `Test ->
          stats.tested <- stats.tested + 1;
          let img = Crash_sim.materialize sim ~extras:(Lazy.force extras) in
          let digest = Crash_sim.image_digest sim img in
          ev_image ~action:"test" ~fence_tid ~op ~key ~viol ~extras
            ~digest:(Some digest);
          let image =
            { img; crash_tid = fence_tid; crash_op = op; viol;
              path_hash = !path_hash;
              extras = Array.of_list (Lazy.force extras); digest }
          in
          match on_image image with
          | `Continue -> ()
          | `Stop -> stop := true
      end
    end
  in
  (* The closure of [persist] if it can persist while [avoid] stays
     non-durable. Asked before a violation is built: an infeasible pair
     (most of them) allocates nothing. *)
  let feasible ~persist ~avoid =
    if !stop then None else Crash_sim.feasible_closure sim ~avoid persist
  in
  let process_fence fence_tid fence_sid op =
    Hashtbl.reset img_seen;
    refresh_sig ();
    let generated_before = stats.generated in
    (* Baseline image: the crash evicted nothing — only already-guaranteed
       stores survive. Always feasible; one per fence, capped per fence
       site. It catches bugs whose inconsistent state is exactly "the
       epoch's work vanished while an earlier side effect (an allocator
       free, an unflushed item) is durable". *)
    let n = epoch.ep_n and kinds = epoch.ep_kinds and ids = epoch.ep_ids
    and tids = epoch.ep_tids in
    let lost = ref (n - 1) in
    while !lost >= 0 && Crash_sim.is_guaranteed sim tids.(!lost) do
      decr lost
    done;
    if !lost >= 0 && not !stop then
      (* kind 2 partitions baseline sites from ordering (0) and
         atomicity (1); -1 stands in for the old "baseline" label *)
      admit ~fence_tid ~op ~clo:None
        ~viol:
          (Unpersisted_epoch
             { fence_sid; first_lost_sid = sid_of_store tids.(!lost) })
        ~site_key:(fence_sid, -1, 2);
    (* Ordering violations: one per (condition, sy) candidate. *)
    for i = n - 1 downto 0 do
      if kinds.(i) = k_cond then begin
        let id = ids.(i) and sy_tid = tids.(i) in
        let sx_tid =
          latest_store_to (Infer.req_addr conds id) (Infer.req_len conds id)
        in
        if sx_tid >= 0 && sx_tid <> sy_tid then begin
          match feasible ~persist:sy_tid ~avoid:sx_tid with
          | None -> ()
          | clo ->
            let sy_sid = sid_of_store sy_tid and sx_sid = sid_of_store sx_tid in
            admit ~fence_tid ~op ~clo
              ~viol:
                (Ordering
                   { rule = Infer.rule conds id; watch_sid = sy_sid;
                     req_sid = sx_sid; watch_tid = sy_tid; req_tid = sx_tid })
              ~site_key:(sy_sid, sx_sid, 0)
        end
      end
    done;
    (* Atomicity violations between guardian stores of this epoch: at
       most [max_pa_pairs_per_fence] pairs, newest first; the walk stops
       at the cap rather than scanning the remaining pairs. *)
    let pairs = ref 0 in
    let capped () = !pairs >= cfg.max_pa_pairs_per_fence in
    let atomicity persisted lost =
      match feasible ~persist:persisted ~avoid:lost with
      | None -> ()
      | clo ->
        let p_sid = sid_of_store persisted and l_sid = sid_of_store lost in
        admit ~fence_tid ~op ~clo
          ~viol:
            (Atomicity
               { persisted_sid = p_sid; lost_sid = l_sid;
                 persisted_tid = persisted; lost_tid = lost })
          ~site_key:(p_sid, l_sid, 1)
    in
    let i = ref (n - 1) in
    while !i >= 0 && not (capped ()) do
      if kinds.(!i) = k_guardian then begin
        let g1 = ids.(!i) and t1 = tids.(!i) in
        let j = ref (!i - 1) in
        while !j >= 0 && not (capped ()) do
          if kinds.(!j) = k_guardian then begin
            let g2 = ids.(!j) and t2 = tids.(!j) in
            if t1 <> t2
            && not
                 (Infer.overlap (Infer.guardian_addr conds g1)
                    (Infer.guardian_len conds g1) (Infer.guardian_addr conds g2)
                    (Infer.guardian_len conds g2))
            then begin
              incr pairs;
              atomicity t1 t2;
              atomicity t2 t1
            end
          end;
          decr j
        done
      end;
      decr i
    done;
    Obs.Metrics.observe "crash_gen.images_per_fence"
      (stats.generated - generated_before);
    epoch.ep_n <- 0;
    incr n_fence
  in
  (* Epoch registration for the store being fed ([cur_store]); built once,
     so a store's visits allocate nothing. *)
  let cur_store = ref (-1) in
  let register_cond id =
    if stamps.(id) <> !n_fence then begin
      stamps.(id) <- !n_fence;
      epoch_push epoch k_cond id !cur_store
    end
  in
  let register_guardian g = epoch_push epoch k_guardian g !cur_store in
  let feed tid =
    if not !stop then begin
      let k = Trace.kind_at trace tid in
      if k = Trace.k_op_begin then begin
        path_hash := 0;
        op_nsites := 0
      end
      else if k = Trace.k_load || k = Trace.k_store then begin
        let sid = Trace.sid_at trace tid in
        path_hash := path_hash_step !path_hash sid;
        if sig_depth > 0 then push_site sid
      end;
      if k = Trace.k_store then begin
        let addr = Trace.addr_at trace tid and len = Trace.len_at trace tid in
        for w = addr lsr 3 to min top_word ((addr + len - 1) lsr 3) do
          last_store_word.(w) <- tid;
          last_store_addr.(w) <- addr;
          last_store_len.(w) <- len
        done;
        (* Register condition candidates watching this store. *)
        cur_store := tid;
        Infer.iter_conds_for conds addr len register_cond;
        Infer.iter_guardians_for conds addr len register_guardian
      end
      else if k = Trace.k_fence then
        process_fence tid (Trace.sid_at trace tid) (Trace.op_at trace tid);
      Crash_sim.on_index sim tid
    end
  in
  let finish () =
    stats.bytes_materialized <- Crash_sim.bytes_materialized sim;
    stats
  in
  { g_feed = feed; g_stopped = (fun () -> !stop); g_finish = finish;
    g_sim = sim }

let generate ?cfg ?decide ?pass ?sig_depth ~trace ~(conds : Infer.t)
    ~pool_size ~on_image () =
  let g =
    stream_create ?cfg ?decide ?pass ?sig_depth ~trace ~conds ~pool_size
      ~on_image ()
  in
  let n = Trace.length trace in
  let i = ref 0 in
  while (not (g.g_stopped ())) && !i < n do
    g.g_feed !i;
    incr i
  done;
  g.g_finish ()
