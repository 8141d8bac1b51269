(* The end-to-end Witcher pipeline (Figure 2): trace -> inference -> crash
   image generation -> output equivalence checking, plus the trace-based
   performance detector. Produces one Table 5-style result per store. *)

type cfg = {
  workload : Workload.cfg;
  crash : Crash_gen.cfg;
  fuel : int;
      (* floor of the per-op replay budget, in NVM accesses; [pipeline]
         raises it to [replay_headroom] times the recording's costliest
         op. Kept as a field only because the standing benchmark
         (perfbench/perfbench.ml) sets it. *)
  (* Oracle/replay optimizations (DESIGN §5); each independently
     toggleable, all verdict-equivalent to the reference checker. *)
  lazy_oracle : bool;  (* build rolled-back oracles on first divergence *)
  memo : bool;         (* digest-keyed verdict memoization *)
  ckpt_stride : int;   (* record-time checkpoint every N ops; 0 = off *)
  batch : bool;        (* fence-batched checking with verdict inheritance *)
  (* Path-representative image pruning (DESIGN §7). *)
  prune : Prune.Policy.t;
  expand_budget : int; (* spot-check validations per equivalence class *)
  sig_depth : int;     (* truncate pruning signatures to the op's last K
                          sites; 0 = full path (cluster keys always full) *)
  (* Streaming pipeline (DESIGN §9). *)
  traffic : Traffic.cfg option;
      (* YCSB-style generator instead of [workload]; honored by both
         engines so streaming A/B comparisons run the same ops *)
  stream_seg_shift : int;  (* trace segment size: 2^shift events, in
                              both window settings *)
  stream_window : int;     (* live window, in segments *)
  ckpt_ring : int;         (* checkpoint-ring capacity (streaming only) *)
}

let default_cfg =
  { workload = Workload.default; crash = Crash_gen.default_cfg;
    fuel = Equiv.default_fuel; lazy_oracle = true; memo = true;
    ckpt_stride = 32;
    batch = true; prune = Prune.Policy.Exhaustive; expand_budget = 3;
    sig_depth = 0;
    traffic = None; stream_seg_shift = Nvm.Trace.default_seg_shift;
    stream_window = 8; ckpt_ring = 8 }

type result = {
  name : string;
  n_ops : int;
  trace_len : int;
  n_loads : int;
  n_stores : int;
  n_flushes : int;
  n_fences : int;
  n_ord_conds : int;
  n_atom_conds : int;
  n_guardians : int;
  images_generated : int;
  images_tested : int;
  n_mismatch : int;          (* tested images failing equivalence *)
  n_clusters : int;
  c_o : int;                 (* distinct ordering bug site-pairs *)
  c_a : int;                 (* distinct atomicity bug site-pairs *)
  perf : Perf.t;
  bug_reports : Cluster.report list;   (* one per distinct root cause *)
  site_pairs : Cluster.report list;
  all_clusters : Cluster.report list;
  per_op_images : (int, int) Hashtbl.t;
  replay_ops : int;          (* store ops re-executed across all resumes *)
  replay_early_stops : int;  (* replays the incremental checker cut short *)
  bytes_materialized : int;  (* bytes copied to build crash images *)
  oracle_runs : int;         (* rolled-back oracles actually built *)
  oracle_ops_saved : int;    (* oracle ops elided by laziness/checkpoints *)
  memo_hits : int;           (* verdicts served from the digest memo *)
  ckpt_bytes : int;          (* record-time checkpoint memory footprint *)
  (* Fence-batched checking (DESIGN §5); all zero when batch is off. *)
  batch_on : bool;
  batch_fences : int;        (* fence groups opened by the batched path *)
  batch_images : int;        (* images routed through a fence group *)
  inherit_hits : int;        (* verdicts inherited from a group sibling *)
  inherit_ops_saved : int;   (* replay ops those inherited checks skipped *)
  (* Path-representative pruning (DESIGN §7); all zero under Exhaustive. *)
  prune_policy : Prune.Policy.t;
  prune_classes : int;       (* path-signature equivalence classes seen *)
  prune_reps : int;          (* representative + spot-check validations *)
  images_deferred : int;     (* eligible images elided at decision time *)
  images_elided : int;       (* deferred images never validated at all *)
  prune_expansions : int;    (* classes promoted back to full validation *)
  seed_memo_hits : int;      (* classes elided via the cross-seed memo *)
  class_outcomes : (string * bool) list;  (* stable class key -> consistent *)
  (* Streaming pipeline (DESIGN §9); stream_on = false in batch runs. *)
  stream_on : bool;
  window_retirements : int;  (* ring segments recycled (both passes) *)
  ckpt_ring_evictions : int; (* checkpoints dropped as the ring rotated *)
  peak_live_words : int;     (* max GC live words sampled during the run *)
  t_record : float;
  t_infer : float;
  t_gen : float;             (* crash-image generation (trace walk + COW) *)
  t_equiv : float;           (* output-equivalence checking (replays) *)
}

(* Final full-heap sample of a run, returning its peak live words. The
   cheap periodic samples track heap words only; the full samples (phase
   boundaries, every few thousand streamed ops, and this closing one)
   feed the live-words peak. *)
let sampled_peak_live_words () =
  Obs.Metrics.sample_mem ~full:true ();
  let s : Obs.Metrics.snapshot = Obs.Metrics.snapshot Obs.Metrics.default in
  match List.assoc_opt "mem.peak_live_words" s.Obs.Metrics.gauges with
  | Some v -> int_of_float v
  | None -> 0

(* Periodic heap sample at op [index] of a windowed run. *)
let sample_mem index =
  if index land 4095 = 0 then Obs.Metrics.sample_mem ~full:true ()
  else if index land 255 = 0 then Obs.Metrics.sample_mem ()

(* Wall-clock, not CPU time: campaign workers run in parallel processes,
   and per-phase timings must stay comparable to the sweep's elapsed
   time. *)
let timed f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

(* Per-op replay budget, as a multiple of the recording's costliest op
   (DESIGN §5, "Replay budget"): an op replayed over a crash image may
   make this many times the accesses any recorded op made before it is
   declared a livelock. *)
let replay_headroom = 16

(* The pipeline (DESIGN §9). Its one mode is the trace window: [None]
   keeps the whole trace, [Some w] keeps about the newest [w] events.

   - Pass A (ingest) runs the ops once, instrumented, into a segmented
     trace of 2^[stream_seg_shift]-event segments, and feeds every event
     to [Infer.feed] and [Perf.feed]; the committed outputs double as the
     committed oracle. Unbounded, it keeps every segment, takes a pool
     snapshot every [ckpt_stride] ops and feeds inference once the run is
     recorded. Windowed, it feeds each op's events as they are appended
     (condition discovery only ever looks backward, so the condition set
     is the same) and retires segments as the window slides; a segment a
     younger event still taint-references stays resident.

   - Pass B (validate) feeds the trace, event by event, to crash-image
     generation against the complete condition set, checking each image
     at its fence. Each replayed op gets [max cfg.fuel (replay_headroom *
     M)] accesses, M being the costliest op pass A recorded. Unbounded,
     it walks the retained pass-A trace. Windowed, it re-executes the ops
     without taint tracking into a fresh trace — the identical event
     stream, guarded op by op — pins dirty stores until they are
     guaranteed, and keeps the newest [ckpt_ring] snapshots. Expansion
     waves of the representative policy are further pass-B walks.

   Verdicts do not depend on the window: generation and checking see the
   same event indices in the same order either way, and the window only
   changes which trace bytes are still resident. A window too small for
   the store's reference distance raises [Nvm.Trace.Retired] loudly.

   One run owns the process-local observability state: the default
   metrics registry and span buffer are reset at entry, so the snapshot a
   campaign worker ships (or `witcher run -v` prints) covers exactly this
   run. The event sink is caller-owned; a `run` header event scopes this
   run's ids within the shard. *)
let pipeline ~window ~cfg ~class_memo (module S : Store_intf.S) =
  let bounded = window <> None in
  Obs.Metrics.reset Obs.Metrics.default;
  Obs.Span.clear Obs.Span.default_buf;
  Obs.Span.with_span ~attrs:[ ("store", S.name) ]
    (if bounded then "engine.run_stream" else "engine.run")
  @@ fun () ->
  if Obs.Event.enabled () then
    ignore
      (Obs.Event.emit "run"
         ~fields:
           ([ ("v", Obs.Jsonx.Int Obs.Event.version);
              ("store", Obs.Jsonx.Str S.name);
              ("seed", Obs.Jsonx.Int cfg.workload.Workload.seed);
              ("n_ops", Obs.Jsonx.Int cfg.workload.Workload.n_ops);
              ("max_images", Obs.Jsonx.Int cfg.crash.Crash_gen.max_images);
              ("policy", Obs.Jsonx.Str (Prune.Policy.name cfg.prune)) ]
            @ if bounded then [ ("stream", Obs.Jsonx.Bool true) ] else []));
  let ops =
    match cfg.traffic with
    | Some tc ->
      Traffic.generate_array
        (if S.supports_scan then tc else Traffic.no_scan tc)
    | None ->
      Array.of_list
        (Workload.generate
           (if S.supports_scan then cfg.workload
            else Workload.no_scan cfg.workload))
  in
  let n = Array.length ops in
  let pool_size = S.pool_size in
  let retirements = ref 0 and evictions = ref 0 in
  let ckpt_peak = ref 0 in  (* most pool snapshots held at once *)
  (* Recycle the trace segments below [target]; the first walk counts. *)
  let retire trace ~pass ~target =
    let r = Nvm.Trace.retire_to trace ~target in
    if r > 0 && pass = 0 then begin
      retirements := !retirements + r;
      Obs.Metrics.incr ~n:r "stream.window_retirements"
    end
  in
  (* ---- pass A: instrumented ingest ---- *)
  let trace = Nvm.Trace.create ~ring_shift:cfg.stream_seg_shift () in
  let conds = Infer.create () and perf_st = Perf.create () in
  let fed = ref 0 in
  let ingest () =
    let len = Nvm.Trace.length trace in
    for i = !fed to len - 1 do
      Infer.feed conds trace i;
      Perf.feed perf_st trace i
    done;
    fed := len
  in
  let record_ckpts = Driver.ckpts cfg.ckpt_stride in
  let outputs = Array.make n Output.Ok in
  let rec_t0 = Unix.gettimeofday () in
  let max_op_cost, t_record =
    timed (fun () ->
        let pmem = Nvm.Pmem.create pool_size in
        let ctx = Nvm.Ctx.create ~trace ~mode:Nvm.Ctx.Record pmem in
        Driver.exec (module S) ctx ops ~after_op:(fun index out ->
            if index > 0 then outputs.(index - 1) <- out;
            match window with
            | None -> ignore (Driver.checkpoint record_ckpts ~n ~index pmem)
            | Some w ->
              ingest ();
              retire trace ~pass:0 ~target:(Nvm.Trace.length trace - w);
              if index > 0 then sample_mem index);
        Nvm.Ctx.max_op_cost ctx)
  in
  Obs.Span.add ~name:"stage.record" ~ts:rec_t0 ~dur:t_record
    ~attrs:
      (("n_ops", string_of_int n)
       :: (if bounded then [ ("stream", "true") ] else []))
    ();
  let t_infer =
    if bounded then begin
      Obs.Metrics.sample_mem ~full:true ();
      0.
    end
    else begin
      let inf_t0 = Unix.gettimeofday () in
      let (), t_infer = timed ingest in
      Obs.Span.add ~name:"stage.infer" ~ts:inf_t0 ~dur:t_infer ();
      t_infer
    end
  in
  let perf = Perf.finish perf_st in
  let trace_len = Nvm.Trace.length trace in
  let n_loads, n_stores, n_flushes, n_fences = Nvm.Trace.stats trace in
  ckpt_peak := record_ckpts.n_held;
  (* What the window holds of pass A for the rest of the run: its trace
     and checkpoints when unbounded, nothing when bounded. *)
  let retained = if bounded then None else Some (trace, record_ckpts) in
  (* ---- validation plumbing, shared by every pass-B walk ---- *)
  let checker =
    Equiv.create
      ~fuel:(max cfg.fuel (replay_headroom * max_op_cost))
      ~lazy_oracle:cfg.lazy_oracle ~memo:cfg.memo
      ~checkpoints:record_ckpts.held (module S : Store_intf.S) ~ops
      ~committed:outputs
  in
  (* The trace pass B is walking: the batch checker reads store ranges off
     it and bug slices come from it; tids are pass-invariant. *)
  let btrace = ref trace in
  if cfg.batch then
    Equiv.enable_batch checker
      ~addr_len:(fun tid ->
        (Nvm.Trace.addr_at !btrace tid, Nvm.Trace.len_at !btrace tid));
  let clusters = Cluster.create ~store_name:S.name in
  let n_mismatch = ref 0 in
  (* Interned operation type per op index: cluster keys and pruning
     signatures share it without touching strings per image. *)
  let op_kind_sids =
    Array.init (n + 1) (fun k ->
        Nvm.Sid.intern
          (Cluster.op_kind_of_desc
             (if k = 0 then "create" else Op.desc ops.(k - 1))))
  in
  (* Pruning signatures use the (possibly truncated) [cd_path_sig] /
     [path_sig] digest; cluster keys keep digesting the full path. At the
     default sig_depth 0 the two coincide. *)
  let sig_of_cand (c : Crash_gen.cand) =
    let watch, req = Crash_gen.violation_sids c.cd_viol in
    Prune.Path_sig.make ~op_kind:op_kind_sids.(c.cd_crash_op)
      ~path:c.cd_path_sig ~watch ~req
  in
  let prune_sig (image : Crash_gen.image) =
    let watch, req = Crash_gen.violation_sids image.viol in
    Prune.Path_sig.make ~op_kind:op_kind_sids.(image.crash_op)
      ~path:image.path_sig ~watch ~req
  in
  (* Generation and checking are pipeline-fused (one image alive at a
     time), so the stage split is measured around each Equiv.check call:
     t_equiv is the replay/compare time, t_gen the rest of the walk. *)
  let t_equiv_acc = ref 0. in
  (* Provenance tag for the verdict currently being reached: why the
     image under check was admitted. Set by the decide hook (or the
     policy branch) immediately before [on_image] fires — valid because
     generation and checking are pipeline-fused and sequential. *)
  let prov = ref "exhaustive" in
  (* One `slice` event per would-be cluster: the live trace events
     touching the violated condition's addresses, up to the crash point.
     Retired events are gone, and the events nearest the crash carry the
     story anyway. *)
  let slices_done : (Prune.Path_sig.t, unit) Hashtbl.t = Hashtbl.create 16 in
  let emit_slice (image : Crash_gen.image) =
    let trace = !btrace in
    let watch, req = Crash_gen.violation_sids image.viol in
    let lo = Nvm.Trace.live_floor trace in
    let upto = min image.crash_tid (Nvm.Trace.length trace - 1) in
    (* address ranges written by the condition's sites before the crash *)
    let ranges = ref [] in
    for tid = lo to upto do
      if Nvm.Trace.kind_at trace tid = Nvm.Trace.k_store then begin
        let sid = Nvm.Trace.sid_at trace tid in
        if (sid = watch || sid = req) && List.length !ranges < 8 then begin
          let r = (Nvm.Trace.addr_at trace tid, Nvm.Trace.len_at trace tid) in
          if not (List.mem r !ranges) then ranges := r :: !ranges
        end
      end
    done;
    let overlaps addr len =
      List.exists (fun (a, l) -> Infer.overlap addr len a l) !ranges
    in
    let cap = 48 in
    let rev_entries = ref [] in
    let total = ref 0 in
    for tid = lo to upto do
      let k = Nvm.Trace.kind_at trace tid in
      if (k = Nvm.Trace.k_store || k = Nvm.Trace.k_flush)
      && overlaps (Nvm.Trace.addr_at trace tid) (Nvm.Trace.len_at trace tid)
      then begin
        incr total;
        let kind = if k = Nvm.Trace.k_store then "store" else "flush" in
        rev_entries :=
          Obs.Jsonx.List
            [ Obs.Jsonx.Int tid; Obs.Jsonx.Str kind;
              Obs.Jsonx.Str (Nvm.Sid.to_string (Nvm.Trace.sid_at trace tid));
              Obs.Jsonx.Int (Nvm.Trace.addr_at trace tid);
              Obs.Jsonx.Int (Nvm.Trace.len_at trace tid);
              Obs.Jsonx.Int (Nvm.Trace.op_at trace tid) ]
          :: !rev_entries
      end
    done;
    (* keep the tail: the events nearest the crash carry the story *)
    let entries = List.rev (List.filteri (fun i _ -> i < cap) !rev_entries) in
    ignore
      (Obs.Event.emit "slice"
         ~fields:
           [ ("image", Obs.Jsonx.Int !Obs.Event.last_image_id);
             ("crash", Obs.Jsonx.Int image.crash_tid);
             ("entries", Obs.Jsonx.List entries);
             ("truncated", Obs.Jsonx.Bool (!total > cap)) ])
  in
  (* Check one image and feed the cluster table; [observe] additionally
     reports the verdict to the pruning registry. *)
  let check_image ?observe (image : Crash_gen.image) =
    let t0 = Unix.gettimeofday () in
    let memo_before = (Equiv.stats checker).Equiv.n_memo_hits in
    let inherit_before = (Equiv.stats checker).Equiv.n_inherit_hits in
    let verdict =
      Equiv.check ~digest:image.digest ~fence:image.crash_tid
        ~extras:image.extras checker ~img:image.img ~crash_op:image.crash_op
    in
    t_equiv_acc := !t_equiv_acc +. (Unix.gettimeofday () -. t0);
    (match observe with
     | None -> ()
     | Some f -> f image (verdict = Equiv.Consistent));
    if Obs.Event.enabled () then begin
      let sig_ =
        Cluster.signature ~op_kind:op_kind_sids.(image.crash_op) image
      in
      let skey = Prune.Path_sig.stable_key sig_ in
      let memo_hit = (Equiv.stats checker).Equiv.n_memo_hits > memo_before in
      let inherit_hit =
        (Equiv.stats checker).Equiv.n_inherit_hits > inherit_before
      in
      let fields =
        [ ("image", Obs.Jsonx.Int !Obs.Event.last_image_id);
          ("class", Obs.Jsonx.Str skey);
          ("consistent", Obs.Jsonx.Bool (verdict = Equiv.Consistent));
          ("memo", Obs.Jsonx.Bool memo_hit);
          ("inherit", Obs.Jsonx.Bool inherit_hit);
          ("prov", Obs.Jsonx.Str !prov) ]
        @ (match verdict with
           | Equiv.Consistent -> []
           | Equiv.Inconsistent v ->
             [ ("first_diff", Obs.Jsonx.Int v.first_diff);
               ("got", Obs.Jsonx.Str (Fmt.str "%a" Output.pp v.got));
               ("expect_committed",
                Obs.Jsonx.Str (Fmt.str "%a" Output.pp v.expect_committed));
               ("expect_rolled_back",
                Obs.Jsonx.Str (Fmt.str "%a" Output.pp v.expect_rolled_back));
               ("crashed", Obs.Jsonx.Bool v.crashed) ])
      in
      ignore (Obs.Event.emit "verdict" ~fields);
      match verdict with
      | Equiv.Inconsistent _ when not (Hashtbl.mem slices_done sig_) ->
        Hashtbl.add slices_done sig_ ();
        emit_slice image
      | _ -> ()
    end;
    (match verdict with
     | Equiv.Consistent -> ()
     | Equiv.Inconsistent _ ->
       incr n_mismatch;
       Cluster.add clusters ~image ~op_kind:op_kind_sids.(image.crash_op)
         ~verdict);
    `Continue
  in
  (* ---- pass B: one validation walk admitting what [decide] tests ---- *)
  let validate =
    match window with
    | None ->
      fun ~decide ~pass ~on_image ->
        Crash_gen.generate ~cfg:cfg.crash ~decide ~pass
          ~sig_depth:cfg.sig_depth ~trace ~conds ~pool_size ~on_image ()
    | Some w ->
      fun ~decide ~pass ~on_image ->
        let tr = Nvm.Trace.create ~ring_shift:cfg.stream_seg_shift () in
        btrace := tr;
        let pmem = Nvm.Pmem.create pool_size in
        let ctx =
          Nvm.Ctx.create ~trace:tr ~taintless:true ~mode:Nvm.Ctx.Record pmem
        in
        let gen =
          Crash_gen.stream_create ~cfg:cfg.crash ~decide ~pass
            ~sig_depth:cfg.sig_depth ~trace:tr ~conds ~pool_size ~on_image ()
        in
        (* Dirty stores pin their segment (image materialization reads
           their payloads); the simulator unpins each as its fence
           guarantees it. *)
        Nvm.Crash_sim.set_on_guarantee gen.Crash_gen.g_sim
          (fun tid -> Nvm.Trace.unpin tr tid);
        (* Oracles resume from the nearest snapshot, and images are
           checked at their fence, so the newest [ckpt_ring] are the ones
           near every crash point still to come. *)
        let ring = Driver.ckpts ~cap:cfg.ckpt_ring cfg.ckpt_stride in
        let fed = ref 0 in
        Driver.exec ~log:false ~stop:gen.Crash_gen.g_stopped (module S) ctx ops
          ~after_op:(fun index out ->
              (* The two passes must replay the same execution
                 bit-for-bit; a store with hidden nondeterminism would
                 silently break parity. *)
              if index > 0 && not (Output.equal out outputs.(index - 1)) then
                failwith
                  (Printf.sprintf
                     "Engine.run_stream: %s diverged between passes at op %d"
                     S.name index);
              let len = Nvm.Trace.length tr in
              for i = !fed to len - 1 do
                if Nvm.Trace.kind_at tr i = Nvm.Trace.k_store then
                  Nvm.Trace.pin tr i;
                gen.Crash_gen.g_feed i
              done;
              fed := len;
              (* The fence-batched checker resolves its extras' store
                 ranges off the trace lazily at group flush; flush any
                 open group before events can retire so those lookups
                 never chase a recycled segment. (Under sparse sampling a
                 group can stay open across an arbitrary stretch of
                 trace.) *)
              let target = len - w in
              if target > Nvm.Trace.live_floor tr then
                Equiv.flush_batch checker;
              retire tr ~pass ~target;
              if Driver.checkpoint ~log:false ring ~n ~index pmem then
                Equiv.set_checkpoints checker ring.held;
              if pass = 0 && index > 0 then begin
                sample_mem index;
                if index land 63 = 0 then
                  Equiv.forget_before checker ~floor:(index - 1)
              end);
        ckpt_peak := max !ckpt_peak ring.n_held;
        if pass = 0 && ring.evicted > 0 then begin
          evictions := ring.evicted;
          Obs.Metrics.incr ~n:ring.evicted "stream.ckpt_ring_evictions"
        end;
        gen.Crash_gen.g_finish ()
  in
  let reg = ref None in
  let expanded_tested = ref 0 in
  let check_t0 = Unix.gettimeofday () in
  let stats, t_check =
    timed (fun () ->
        match cfg.prune with
        | Prune.Policy.Exhaustive ->
          validate ~decide:(fun _ -> `Test) ~pass:0 ~on_image:check_image
        | Prune.Policy.Sample stride ->
          (* blind §7.5-style statistical fallback: every stride-th
             eligible image, no class tracking, no expansion *)
          let i = ref (-1) in
          let decide (_ : Crash_gen.cand) =
            incr i;
            if !i mod stride = 0 then begin
              prov := "sample";
              `Test
            end
            else `Defer
          in
          validate ~decide ~pass:0 ~on_image:check_image
        | Prune.Policy.Representative ->
          let r =
            Prune.Equiv_class.create
              ~expand:(Prune.Expand.create ~budget:cfg.expand_budget)
              ~memo:class_memo ()
          in
          reg := Some r;
          (* Pass 1: one representative (plus spot-checks) per class;
             deferred members are remembered by their stable
             (fence, persist-set) identity, not by image — a materialized
             image aliases the live simulator pool and dies at the next
             trace event. *)
          let decide (c : Crash_gen.cand) =
            match
              Prune.Equiv_class.decide r ~sig_:(sig_of_cand c)
                ~member:(c.cd_fence_tid, c.cd_key)
            with
            | `Test ->
              prov := Prune.Equiv_class.last_reason r;
              `Test
            | `Defer -> `Defer
          in
          let observe image consistent =
            Prune.Equiv_class.observe r ~sig_:(prune_sig image) ~consistent
          in
          let stats =
            validate ~decide ~pass:0 ~on_image:(check_image ~observe)
          in
          (* Expansion waves. Generation is deterministic over the same
             event stream and config, so another walk with a decide hook
             that admits an explicit member set re-materializes precisely
             those images; the Equiv checker (and its digest memo)
             carries over. The first wave holds every promoted class's
             deferred members plus one tail spot-check per collapsed
             class — the latest deferred member, the highest-value extra
             check since divergence typically appears late as corruption
             accumulates. Verdicts observed during a wave can promote
             further classes, whose remaining members form the next
             wave; the loop reaches a fixpoint because each class
             expands at most once. *)
          let tested_extra = Hashtbl.create 256 in
          let expanded_sigs = Hashtbl.create 64 in
          let next_wave () =
            let want = Hashtbl.create 256 in
            List.iter
              (fun (sig_, members) ->
                 if not (Hashtbl.mem expanded_sigs sig_) then begin
                   Hashtbl.add expanded_sigs sig_ ();
                   List.iter
                     (fun m ->
                        if not (Hashtbl.mem tested_extra m) then
                          Hashtbl.replace want m ())
                     members
                 end)
              (Prune.Equiv_class.promoted_deferred r);
            want
          in
          let wave = ref (next_wave ()) in
          let tails = Hashtbl.create 16 in
          List.iter
            (fun (_sig, m) ->
               if not (Hashtbl.mem tested_extra m) then begin
                 Hashtbl.replace !wave m ();
                 Hashtbl.replace tails m ()
               end)
            (Prune.Equiv_class.tail_spots r);
          let pass = ref 0 in
          while Hashtbl.length !wave > 0 do
            incr pass;
            let want = !wave in
            let decide (c : Crash_gen.cand) =
              let m = (c.cd_fence_tid, c.cd_key) in
              if Hashtbl.mem want m then begin
                Hashtbl.replace tested_extra m ();
                prov :=
                  (if Hashtbl.mem tails m then "tail"
                   else "wave:" ^ string_of_int !pass);
                `Test
              end
              else `Defer
            in
            (* each wanted member materializes exactly once; cut the
               walk short as soon as the last one has been checked *)
            let remaining = ref (Hashtbl.length want) in
            let on_image image =
              ignore (check_image ~observe image);
              decr remaining;
              if !remaining = 0 then `Stop else `Continue
            in
            let stats_w = validate ~decide ~pass:!pass ~on_image in
            expanded_tested := !expanded_tested + stats_w.Crash_gen.tested;
            stats.Crash_gen.tested <-
              stats.Crash_gen.tested + stats_w.Crash_gen.tested;
            stats.Crash_gen.bytes_materialized <-
              stats.Crash_gen.bytes_materialized
              + stats_w.Crash_gen.bytes_materialized;
            wave := next_wave ()
          done;
          stats)
  in
  (* Close the last open fence group so the images-per-batch histogram
     covers every group. *)
  Equiv.flush_batch checker;
  let t_equiv = !t_equiv_acc in
  let t_gen = Float.max 0. (t_check -. t_equiv) in
  (* The two fused stages tile [check_t0, check_t0 + t_check): their span
     durations sum exactly to the loop's wall-clock, so stage spans and
     the journal's t_* fields agree (asserted by the obs-smoke alias). *)
  Obs.Span.add ~name:"stage.gen" ~ts:check_t0 ~dur:t_gen
    ~attrs:[ ("images_generated", string_of_int stats.generated);
             ("images_tested", string_of_int stats.tested) ] ();
  Obs.Span.add ~name:"stage.equiv" ~ts:(check_t0 +. t_gen)
    ~dur:(Float.max 0. (t_check -. t_gen)) ();
  let estats = Equiv.stats checker in
  let bug_reports = Cluster.root_causes clusters in
  let site_pairs = Cluster.site_pairs clusters in
  (* §4.5: an unpersisted store is only a *performance* bug if it passes
     output equivalence checking; sites implicated in a correctness bug
     are dropped from P-U. *)
  List.iter
    (fun (r : Cluster.report) ->
       Hashtbl.remove perf.Perf.p_u.sites (Nvm.Sid.intern r.watch_sid);
       Hashtbl.remove perf.Perf.p_u.sites (Nvm.Sid.intern r.req_sid))
    site_pairs;
  let count kind =
    List.length
      (List.filter (fun (r : Cluster.report) -> r.kind = kind) bug_reports)
  in
  let prune_classes, prune_reps, prune_expansions, seed_memo_hits,
      class_outcomes =
    match !reg with
    | Some r ->
      ( Prune.Equiv_class.n_classes r, Prune.Equiv_class.n_reps r,
        Prune.Equiv_class.n_promoted r, Prune.Equiv_class.n_memo_hits r,
        Prune.Equiv_class.outcomes r )
    | None -> (0, 0, 0, 0, [])
  in
  let images_deferred = stats.deferred in
  let images_elided = stats.deferred - !expanded_tested in
  if cfg.prune <> Prune.Policy.Exhaustive then begin
    Obs.Metrics.incr ~n:prune_classes "prune.classes";
    Obs.Metrics.incr ~n:prune_reps "prune.reps";
    Obs.Metrics.incr ~n:images_elided "prune.images_elided";
    Obs.Metrics.incr ~n:prune_expansions "prune.expansions";
    Obs.Metrics.incr ~n:seed_memo_hits "prune.seed_memo_hits"
  end;
  (* End-of-run forensics: one `class` event per pruning class, one
     `cluster` event per failing cluster (flagged when it is a root
     cause), and a `summary` of the headline counters. *)
  if Obs.Event.enabled () then begin
    (match !reg with
     | Some r ->
       List.iter
         (fun (ci : Prune.Equiv_class.info) ->
            ignore
              (Obs.Event.emit "class"
                 ~fields:
                   [ ("class", Obs.Jsonx.Str ci.i_skey);
                     ("op_kind",
                      Obs.Jsonx.Str
                        (Nvm.Sid.to_string ci.i_sig.Prune.Path_sig.op_kind));
                     ("path", Obs.Jsonx.Int ci.i_sig.Prune.Path_sig.path);
                     ("watch",
                      Obs.Jsonx.Str
                        (Nvm.Sid.to_string ci.i_sig.Prune.Path_sig.watch));
                     ("req",
                      Obs.Jsonx.Str
                        (Nvm.Sid.to_string ci.i_sig.Prune.Path_sig.req));
                     ("members", Obs.Jsonx.Int ci.i_members);
                     ("deferred", Obs.Jsonx.Int ci.i_deferred);
                     ("spots", Obs.Jsonx.Int ci.i_spots);
                     ("promoted", Obs.Jsonx.Bool ci.i_promoted);
                     ("memo_hit", Obs.Jsonx.Bool ci.i_memo_hit);
                     ("prediction",
                      match ci.i_prediction with
                      | None -> Obs.Jsonx.Null
                      | Some b -> Obs.Jsonx.Bool b) ]))
         (Prune.Equiv_class.classes_info r)
     | None -> ());
    (* one root marker per (kind, watch) — the same notion as
       [Cluster.root_causes] but picked in the deterministic keyed
       order, so the event stream never leaks Hashtbl iteration *)
    let root_seen = Hashtbl.create 8 in
    List.iter
      (fun (skey, (rep : Cluster.report)) ->
         let root =
           let k = (rep.Cluster.kind, rep.Cluster.watch_sid) in
           if Hashtbl.mem root_seen k then false
           else begin
             Hashtbl.add root_seen k ();
             true
           end
         in
         ignore
           (Obs.Event.emit "cluster"
              ~fields:
                [ ("class", Obs.Jsonx.Str skey);
                  ("kind",
                   Obs.Jsonx.Str
                     (match rep.kind with
                      | Cluster.C_ordering -> "C-O"
                      | Cluster.C_atomicity -> "C-A"));
                  ("rule", Obs.Jsonx.Str rep.rule);
                  ("op", Obs.Jsonx.Str rep.op_desc);
                  ("watch", Obs.Jsonx.Str rep.watch_sid);
                  ("req", Obs.Jsonx.Str rep.req_sid);
                  ("count", Obs.Jsonx.Int rep.count);
                  ("crash", Obs.Jsonx.Int rep.example_crash_tid);
                  ("first_diff", Obs.Jsonx.Int rep.example_first_diff);
                  ("got", Obs.Jsonx.Str (Fmt.str "%a" Output.pp rep.example_got));
                  ("expected",
                   Obs.Jsonx.Str (Fmt.str "%a" Output.pp rep.example_expected));
                  ("crashed", Obs.Jsonx.Bool rep.crashed);
                  ("root", Obs.Jsonx.Bool root) ]))
      (Cluster.reports_keyed clusters);
    ignore
      (Obs.Event.emit "summary"
         ~fields:
           ([ ("images_generated", Obs.Jsonx.Int stats.generated);
              ("images_tested", Obs.Jsonx.Int stats.tested);
              ("images_deferred", Obs.Jsonx.Int images_deferred);
              ("images_elided", Obs.Jsonx.Int images_elided);
              ("n_mismatch", Obs.Jsonx.Int !n_mismatch);
              ("n_clusters", Obs.Jsonx.Int (Cluster.n_clusters clusters));
              ("memo_hits", Obs.Jsonx.Int estats.Equiv.n_memo_hits);
              ("oracle_runs", Obs.Jsonx.Int estats.Equiv.n_oracle_runs);
              ("prune_classes", Obs.Jsonx.Int prune_classes);
              ("prune_expansions", Obs.Jsonx.Int prune_expansions) ]
            @
            if bounded then
              [ ("window_retirements", Obs.Jsonx.Int !retirements);
                ("ckpt_ring_evictions", Obs.Jsonx.Int !evictions) ]
            else []))
  end;
  (* An unbounded run's only heap sample is this closing one: keep what its
     window held reachable until then, so the peak counts it. *)
  let peak_live_words = sampled_peak_live_words () in
  ignore (Sys.opaque_identity retained);
  { name = S.name;
    n_ops = n;
    trace_len;
    n_loads; n_stores; n_flushes; n_fences;
    n_ord_conds = Infer.n_ordering conds;
    n_atom_conds = Infer.n_atomicity conds;
    n_guardians = Infer.n_guardians conds;
    images_generated = stats.generated;
    images_tested = stats.tested;
    n_mismatch = !n_mismatch;
    n_clusters = Cluster.n_clusters clusters;
    c_o = count Cluster.C_ordering;
    c_a = count Cluster.C_atomicity;
    perf;
    bug_reports;
    site_pairs;
    all_clusters = Cluster.reports clusters;
    per_op_images = stats.per_op_images;
    replay_ops = estats.Equiv.n_replay_ops;
    replay_early_stops = estats.Equiv.n_early_stops;
    bytes_materialized = stats.bytes_materialized;
    oracle_runs = estats.Equiv.n_oracle_runs;
    oracle_ops_saved = estats.Equiv.n_oracle_ops_saved;
    memo_hits = estats.Equiv.n_memo_hits;
    ckpt_bytes = !ckpt_peak * pool_size;
    batch_on = cfg.batch;
    batch_fences = estats.Equiv.n_batch_fences;
    batch_images = estats.Equiv.n_batch_images;
    inherit_hits = estats.Equiv.n_inherit_hits;
    inherit_ops_saved = estats.Equiv.n_inherit_ops_saved;
    prune_policy = cfg.prune;
    prune_classes; prune_reps; images_deferred; images_elided;
    prune_expansions; seed_memo_hits; class_outcomes;
    stream_on = bounded;
    window_retirements = !retirements;
    ckpt_ring_evictions = !evictions;
    peak_live_words;
    t_record; t_infer; t_gen; t_equiv }

(* The whole trace and every record-time checkpoint stay resident. *)
let run ?(cfg = default_cfg) ?(class_memo = fun (_ : string) -> None) store =
  pipeline ~window:None ~cfg ~class_memo store

(* Bounded memory: a window of [stream_window] trace segments of
   2^[stream_seg_shift] events and a ring of [ckpt_ring] checkpoints. *)
let run_stream ?(cfg = default_cfg) ?(class_memo = fun (_ : string) -> None)
    store =
  pipeline
    ~window:(Some (cfg.stream_window lsl cfg.stream_seg_shift))
    ~cfg ~class_memo store
