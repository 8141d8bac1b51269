(* Bounded trace window: verdict parity with the unbounded window, and
   how the segmented trace releases what leaves the window.

   The headline property (DESIGN §9): [Engine.run_stream] is the
   pipeline of [Engine.run] with a bounded window, not a different
   analysis — over every registry store, random seeds and both pruning
   policies it must produce the identical mismatch count, cluster
   reports, image counts and oracle work. The streaming config here
   uses a deliberately tiny window (4 segments of 128 events) so a
   few-thousand-event trace retires dozens of segments mid-run, plus a
   2-deep checkpoint ring to force evictions — parity must survive
   both. Nothing holds a segment back: each pass releases every segment
   that leaves the window, and the trace then holds only the window. *)

module W = Witcher
module R = Stores.Registry
module T = Nvm.Trace

let stream_cfg base =
  { base with
    W.Engine.stream_seg_shift = 7;
    stream_window = 4;
    ckpt_ring = 2 }

let cfg ~prune ~seed ~n_ops =
  { W.Engine.default_cfg with
    workload = { W.Workload.default with n_ops; seed };
    crash = { W.Crash_gen.default_cfg with max_images = 1200 };
    prune }

(* Everything verdict-shaped in a result, plus the checker's oracle
   work, which a bounded run must not redo; timings and memory excluded. *)
let fingerprint (r : W.Engine.result) =
  ( ( r.n_mismatch, r.n_clusters, r.c_o, r.c_a,
      r.images_generated, r.images_tested ),
    (r.oracle_runs, r.oracle_ops_saved),
    List.sort compare r.all_clusters,
    List.sort compare r.site_pairs,
    List.sort compare r.bug_reports )

(* Segments a bounded run retires: pass A and pass B each retire every
   segment wholly below the window by the end of the run. *)
let expected_retirements (c : W.Engine.cfg) ~trace_len =
  let window = c.stream_window lsl c.stream_seg_shift in
  2 * (max 0 (trace_len - window) lsr c.stream_seg_shift)

let check_parity (c : W.Engine.cfg) (e : R.entry) =
  let batch = W.Engine.run ~cfg:c (e.buggy ()) in
  let sc = stream_cfg c in
  let stream = W.Engine.run_stream ~cfg:sc (e.buggy ()) in
  if not stream.stream_on then
    Alcotest.failf "%s: run_stream did not mark stream_on" e.name;
  let want = expected_retirements sc ~trace_len:stream.trace_len in
  if stream.window_retirements <> want then
    Alcotest.failf
      "%s seed=%d n=%d %s: %d segments retired, want %d (trace %d events)"
      e.name c.workload.seed c.workload.n_ops (Prune.Policy.name c.prune)
      stream.window_retirements want stream.trace_len;
  if fingerprint batch <> fingerprint stream then
    Alcotest.failf
      "%s seed=%d n=%d %s%s: stream/batch divergence \
       (batch: %d mismatch %d clusters %d gen %d tested %d oracles; \
       stream: %d mismatch %d clusters %d gen %d tested %d oracles)"
      e.name c.workload.seed c.workload.n_ops
      (Prune.Policy.name c.prune)
      (match c.traffic with Some t -> " traffic=" ^ t.name | None -> "")
      batch.n_mismatch batch.n_clusters batch.images_generated
      batch.images_tested batch.oracle_runs stream.n_mismatch
      stream.n_clusters stream.images_generated stream.images_tested
      stream.oracle_runs;
  stream

let parity_prop =
  QCheck.Test.make ~count:2 ~name:"stream = batch on every store"
    QCheck.(pair (int_range 1 10_000) (int_range 40 120))
    (fun (seed, n_ops) ->
       List.iter
         (fun (e : R.entry) ->
            List.iter
              (fun prune ->
                 ignore (check_parity (cfg ~prune ~seed ~n_ops) e))
              [ Prune.Policy.Exhaustive; Prune.Policy.Representative ])
         R.all;
       true)

(* The `image` events of a run, with the event ids they carry and point
   to: an exhaustive run logs the same events in both window settings,
   so the ids agree too. *)
let image_events run =
  Obs.Event.start ();
  (match run () with
   | _ -> ()
   | exception ex -> ignore (Obs.Event.stop ()); raise ex);
  List.filter
    (fun j -> Obs.Jsonx.str_field j "e" = "image")
    (Obs.Event.stop ())

(* The tiny window must actually slide: with 4 x 128 live events and a
   multi-thousand-event trace, retirement is guaranteed, as are
   checkpoint-ring evictions with stride 32, ring 2 and 100+ ops. Buggy
   level-hash never flushes its counters' line, so many images persist
   stores whose segments are long retired; their `image` events (sids
   and ranges of the extras) must read exactly as unbounded. *)
let test_stream_counters () =
  let e =
    List.find (fun (e : R.entry) -> e.R.name = "level-hash") R.all
  in
  let c = cfg ~prune:Prune.Policy.Exhaustive ~seed:7 ~n_ops:120 in
  let r = check_parity c e in
  Alcotest.(check bool) "window retired segments" true
    (r.window_retirements > 0);
  Alcotest.(check bool) "checkpoint ring evicted" true
    (r.ckpt_ring_evictions > 0);
  Alcotest.(check bool) "peak live heap sampled" true
    (r.peak_live_words > 0);
  let batch = image_events (fun () -> W.Engine.run ~cfg:c (e.buggy ())) in
  let stream =
    image_events (fun () -> W.Engine.run_stream ~cfg:(stream_cfg c) (e.buggy ()))
  in
  Alcotest.(check bool) "images logged" true (batch <> []);
  Alcotest.(check bool) "image events equal unbounded" true (batch = stream)

(* [ckpt_bytes] counts the pool snapshots actually held: none without a
   stride; at 128 ops with the default stride the three taken after ops
   32, 64 and 96 (never after the last op), as an unbounded run holds;
   and never more than the ring keeps. *)
let ckpt_cfg ckpt_stride =
  { (cfg ~prune:Prune.Policy.Exhaustive ~seed:42 ~n_ops:128) with
    crash = { W.Crash_gen.default_cfg with max_images = 100 };
    ckpt_stride }

let level_hash () =
  List.find (fun (e : R.entry) -> e.R.name = "level-hash") R.all

let test_ckpt_bytes_no_stride () =
  let r = W.Engine.run_stream ~cfg:(ckpt_cfg 0) ((level_hash ()).buggy ()) in
  Alcotest.(check int) "no snapshot held" 0 r.ckpt_bytes

let test_ckpt_bytes_held () =
  let e = level_hash () in
  let module S = (val e.buggy ()) in
  let c = ckpt_cfg W.Engine.default_cfg.ckpt_stride in
  let stream = W.Engine.run_stream ~cfg:c (e.buggy ()) in
  let batch = W.Engine.run ~cfg:c (e.buggy ()) in
  Alcotest.(check int) "three snapshots held" (3 * S.pool_size)
    stream.ckpt_bytes;
  Alcotest.(check int) "as many as unbounded" batch.ckpt_bytes
    stream.ckpt_bytes;
  let ring = W.Engine.run_stream ~cfg:(stream_cfg c) (e.buggy ()) in
  Alcotest.(check int) "no more than the ring" (2 * S.pool_size)
    ring.ckpt_bytes

let test_sample_policy_parity () =
  let e = List.find (fun (e : R.entry) -> e.R.name = "cceh") R.all in
  ignore
    (check_parity (cfg ~prune:(Prune.Policy.Sample 7) ~seed:3 ~n_ops:100) e)

(* Traffic-driven parity: the generator path (zipfian keys, preload,
   bursts) through both window settings, for every preset. *)
let test_traffic_parity () =
  let e = List.find (fun (e : R.entry) -> e.R.name = "fast-fair") R.all in
  List.iter
    (fun (_, t) ->
       let tc = { t with W.Traffic.n_ops = 90; key_space = 64; preload = 24 } in
       ignore
         (check_parity
            { (cfg ~prune:Prune.Policy.Exhaustive ~seed:1 ~n_ops:90) with
              W.Engine.traffic = Some tc }
            e))
    W.Traffic.presets

(* ---------- windowed segment trace unit tests ---------- *)

let seg_trace () = T.create ~seg_shift:4 ()  (* 16-event segments *)

let add_n tr n =
  for _ = 1 to n do
    ignore
      (T.add_load tr ~sid:(Nvm.Sid.intern "t:load") ~addr:0 ~len:8
         ~cd:Nvm.Taint.empty ~op:0)
  done

let words tr = Obj.reachable_words (Obj.repr tr)

let test_trace_releases () =
  let tr = seg_trace () in
  add_n tr 100;
  let r = T.retire_to tr ~target:(T.length tr - 32) in
  Alcotest.(check int) "every segment below the target" 4 r;
  Alcotest.(check int) "floor advanced" (r * 16) (T.live_floor tr);
  Alcotest.(check int) "length unaffected" 100 (T.length tr);
  Alcotest.(check bool) "old tid below the floor" true (0 < T.live_floor tr);
  Alcotest.(check bool) "recent tid live" true
    (T.live_floor tr <= 99 && 99 < T.length tr);
  (match T.addr_at tr 0 with
   | _ -> Alcotest.fail "retired access must raise"
   | exception T.Retired _ -> ());
  (* Release: sliding a 32-event window over 200 more events opens 12
     segments, and the trace holds only the ones the window still
     covers, at most 3. With 4 one-segment traces' worth as the bound, a
     trace that kept its retired segments reachable fails. *)
  let one =
    let t = seg_trace () in
    add_n t 1;
    words t
  in
  let held = ref 0 in
  for _ = 1 to 20 do
    add_n tr 10;
    ignore (T.retire_to tr ~target:(T.length tr - 32));
    held := max !held (words tr)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "sliding window holds %d words <= 4 x %d" !held one)
    true (!held <= 4 * one)

(* A tid at or past [length] is no event: every accessor raises, on an
   empty trace, inside the head segment and at the segment boundary. *)
let test_past_length_raises () =
  let raises what f =
    match f () with
    | _ -> Alcotest.failf "%s past the length must raise" what
    | exception Invalid_argument _ -> ()
  in
  let check tr tid =
    raises "kind_at" (fun () -> T.kind_at tr tid);
    raises "addr_at" (fun () -> T.addr_at tr tid);
    raises "cd_at" (fun () -> ignore (T.cd_at tr tid));
    raises "store_payload" (fun () -> ignore (T.store_payload tr tid));
    raises "get" (fun () -> ignore (T.get tr tid))
  in
  let tr = seg_trace () in
  check tr 0;
  add_n tr 5;
  check tr 5;
  check tr 15;
  add_n tr 11;
  check tr 16

(* The simulator owns the stores it has not guaranteed: a never-flushed
   store whose segment has been retired is still unguaranteed, still
   heads its closure, still reports its sid and range, and still writes
   its bytes into an image that persists it. *)
let test_sim_holds_retired_store () =
  let module Sim = Nvm.Crash_sim in
  let tr = seg_trace () in
  let sim = Sim.create ~trace:tr ~pool_size:4096 in
  let sid = Nvm.Sid.intern "t:dirty" in
  let dirty =
    T.add_store_u64 tr ~sid ~addr:128 ~v:0x1234_5678 ~dd:Nvm.Taint.empty
      ~cd:Nvm.Taint.empty ~op:0
  in
  Sim.on_index sim dirty;
  (* 60 more events, a flushed and fenced store on another line among
     them: fences pass, but none guarantees the dirty store *)
  for i = 1 to 20 do
    let st =
      T.add_store_u64 tr ~sid:(Nvm.Sid.intern "t:clean") ~addr:(256 + (8 * i))
        ~v:i ~dd:Nvm.Taint.empty ~cd:Nvm.Taint.empty ~op:0
    in
    Sim.on_index sim st;
    Sim.on_index sim
      (T.add_flush tr ~sid:(Nvm.Sid.intern "t:fl")
         ~line:(Nvm.Pmem.line_of_addr (256 + (8 * i))) ~op:0);
    Sim.on_index sim (T.add_fence tr ~sid:(Nvm.Sid.intern "t:fe") ~op:0)
  done;
  let r = T.retire_to tr ~target:(T.length tr - 16) in
  Alcotest.(check bool) "the store's segment retired" true
    (r > 0 && dirty < T.live_floor tr);
  Alcotest.(check bool) "still unguaranteed" false (Sim.is_guaranteed sim dirty);
  Alcotest.(check (list int)) "heads its closure" [ dirty ]
    (Sim.closure_tids (Sim.closure sim dirty));
  Alcotest.(check int) "sid" sid (Sim.store_sid sim dirty);
  Alcotest.(check (pair int int)) "range" (128, 8) (Sim.store_range sim dirty);
  let img = Sim.materialize sim ~extras:[ dirty ] in
  Alcotest.(check int) "image holds its bytes" 0x1234_5678
    (Nvm.Pmem.read_u64 img 128);
  Alcotest.(check int) "the guaranteed base does not" 0
    (Nvm.Pmem.read_u64 (Sim.materialize sim ~extras:[]) 128)

(* A condition spanning the window boundary holds nothing: the segment a
   newer event's taint references retires like any other, and reading
   the referenced load then raises [Retired]. *)
let test_taint_spans_window () =
  let tr = seg_trace () in
  let first =
    T.add_load tr ~sid:(Nvm.Sid.intern "t:load") ~addr:0 ~len:8
      ~cd:Nvm.Taint.empty ~op:0
  in
  add_n tr 60;
  (* a store whose data dependency reaches back to tid 0 *)
  ignore
    (T.add_store_u64 tr ~sid:(Nvm.Sid.intern "t:store") ~addr:64 ~v:1
       ~dd:(Nvm.Taint.singleton first) ~cd:Nvm.Taint.empty ~op:1);
  add_n tr 40;
  let r = T.retire_to tr ~target:(T.length tr - 16) in
  Alcotest.(check int) "every segment below the target retires"
    ((T.length tr - 16) / 16) r;
  match T.addr_at tr first with
  | _ -> Alcotest.fail "the referenced load must be retired"
  | exception T.Retired _ -> ()

let suite =
  [ Alcotest.test_case "trace releases retired segments" `Quick
      test_trace_releases;
    Alcotest.test_case "accessors past the length raise" `Quick
      test_past_length_raises;
    Alcotest.test_case "sim keeps a retired dirty store" `Quick
      test_sim_holds_retired_store;
    Alcotest.test_case "spanning taint holds no segment" `Quick
      test_taint_spans_window;
    Alcotest.test_case "streaming counters move" `Slow test_stream_counters;
    Alcotest.test_case "ckpt_bytes without a stride" `Quick
      test_ckpt_bytes_no_stride;
    Alcotest.test_case "ckpt_bytes counts held snapshots" `Quick
      test_ckpt_bytes_held;
    Alcotest.test_case "sample-policy parity" `Slow test_sample_policy_parity;
    Alcotest.test_case "traffic generator parity" `Slow test_traffic_parity;
    QCheck_alcotest.to_alcotest parity_prop ]
