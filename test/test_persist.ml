(* Crash-image feasibility against the independent persistency model
   (Persist_model): Crash_sim's closure slices on random store/flush/fence
   sequences, every image Crash_gen hands out on every registry store,
   and a guard that generation builds extras lists only for the images it
   hands out. *)

open Nvm
module W = Witcher
module R = Stores.Registry
module M = Persist_model

(* --- Property A: closure slices = the model's closures --- *)

type step = St of int | Burst of int * int | Fl of int | Fe

(* Words 0-23 span three cache lines. A burst is a run of 11-14 stores
   to one line with no flush: its closures are longer than the 10 tids
   [Crash_sim.closure_key] reads. Every sequence holds at least one. *)
let gen_steps =
  let open QCheck2.Gen in
  let step =
    frequency
      [ (3, map (fun w -> St w) (int_range 0 23));
        (1, map2 (fun l k -> Burst (l, k)) (int_range 0 2) (int_range 11 14));
        (2, map (fun w -> Fl w) (int_range 0 23));
        (2, pure Fe) ]
  in
  map3
    (fun pre b post -> pre @ (b :: post))
    (list_size (int_range 0 5) step)
    (map2 (fun l k -> Burst (l, k)) (int_range 0 2) (int_range 11 14))
    (list_size (int_range 0 5) step)

let print_steps steps =
  String.concat " "
    (List.map
       (function
         | St w -> Printf.sprintf "st%d" w
         | Burst (l, k) -> Printf.sprintf "burst%d*%d" l k
         | Fl w -> Printf.sprintf "fl%d" w
         | Fe -> "fe")
       steps)

(* Every (persist, avoid) pair of fed stores, compared at every fence
   (before it takes effect, as Crash_gen crashes) and at the end. *)
let check_closures sim m stores =
  List.for_all
    (fun p ->
       let want = M.closure m p in
       let c = Crash_sim.closure sim p in
       Crash_sim.closure_tids c = want
       && Crash_sim.closure_key c = Hashtbl.hash want
       && List.for_all
         (fun a ->
            match Crash_sim.feasible_closure sim ~avoid:a p with
            | Some c ->
              M.feasible m ~persist:p ~avoid:a && Crash_sim.closure_tids c = want
            | None -> not (M.feasible m ~persist:p ~avoid:a))
         stores)
    stores

let prop_closure_vs_model =
  QCheck2.Test.make ~name:"closure slices = persistency model (long runs)"
    ~count:200 ~print:print_steps gen_steps
    (fun steps ->
       let tr = Trace.create () in
       let sim = Crash_sim.create ~trace:tr ~pool_size:4096 in
       let m = M.create () in
       let stores = ref [] in
       let ok = ref true in
       let feed tid =
         Crash_sim.on_index sim tid;
         M.feed m (Trace.get tr tid)
       in
       let store w =
         let tid =
           Trace.add_store_u64 tr ~sid:(Sid.intern "p.st") ~addr:(w * 8)
             ~v:(Trace.length tr) ~dd:Taint.empty ~cd:Taint.empty ~op:0
         in
         feed tid;
         stores := tid :: !stores
       in
       List.iter
         (function
           | St w -> store w
           | Burst (l, k) -> for j = 0 to k - 1 do store ((l * 8) + (j mod 8)) done
           | Fl w ->
             feed
               (Trace.add_flush tr ~sid:(Sid.intern "p.fl")
                  ~line:(Pmem.line_of_addr (w * 8)) ~op:0)
           | Fe ->
             ok := !ok && check_closures sim m !stores;
             feed (Trace.add_fence tr ~sid:(Sid.intern "p.fe") ~op:0))
         steps;
       !ok && check_closures sim m !stores)

(* --- Property B: every generated image is a feasible crash state --- *)

let image_ok m (img : W.Crash_gen.image) =
  let extras = Array.to_list img.extras in
  let in_state t = M.guaranteed m t || List.mem t extras in
  let persisted_lost =
    match img.viol with
    | W.Crash_gen.Ordering o -> in_state o.watch_tid && not (in_state o.req_tid)
    | W.Crash_gen.Atomicity a ->
      in_state a.persisted_tid && not (in_state a.lost_tid)
    | W.Crash_gen.Unpersisted_epoch _ -> extras = []
  in
  List.for_all (fun t -> not (M.guaranteed m t)) extras
  && M.prefix_closed m extras
  && persisted_lost

let prop_images_vs_model =
  QCheck2.Test.make ~name:"generated images are model-feasible, all stores"
    ~count:3
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
       List.for_all
         (fun (e : R.entry) ->
            let module S = (val e.buggy ()) in
            let wl = { W.Workload.default with n_ops = 30; seed } in
            let wl = if S.supports_scan then wl else W.Workload.no_scan wl in
            let r = W.Driver.record (module S) (W.Workload.generate wl) in
            let conds = W.Infer.infer r.trace in
            let m = M.create () in
            let fed = ref 0 in
            let bad = ref [] in
            ignore
              (W.Crash_gen.generate ~trace:r.trace ~conds
                 ~pool_size:r.pool_size
                 ~on_image:(fun img ->
                     (* the crash state is everything before the fence *)
                     fed := M.feed_range m r.trace ~from:!fed ~upto:img.crash_tid;
                     if not (image_ok m img) then bad := img.crash_tid :: !bad;
                     `Continue)
                 ());
            if !bad <> [] then
              QCheck2.Test.fail_reportf "%s seed %d: infeasible images at fences %s"
                e.name seed
                (String.concat "," (List.rev_map string_of_int !bad));
            true)
         R.all)

(* --- Complexity guard: lists only for handed-out images --- *)

(* Buggy level-hash never flushes its counters' line, so its closures
   keep growing; at 1000 ops (seed 42) its ~49k candidates face a few
   hundred tested images. With events off, only a tested image may build
   its extras list, so the lists built must add up to the extras handed
   out — a list built per candidate again would count millions of tids
   here. *)
let test_extras_built_guard () =
  let e = Option.get (R.find "level-hash") in
  let module S = (val e.buggy ()) in
  let wl = W.Workload.no_scan { W.Workload.default with n_ops = 1000 } in
  let r = W.Driver.record (module S) (W.Workload.generate wl) in
  let conds = W.Infer.infer r.trace in
  Alcotest.(check bool) "event sink off" false (Obs.Event.enabled ());
  Obs.Metrics.reset Obs.Metrics.default;
  let handed = ref 0 in
  let stats =
    W.Crash_gen.generate ~trace:r.trace ~conds ~pool_size:r.pool_size
      ~on_image:(fun img ->
          handed := !handed + Array.length img.extras;
          `Continue)
      ()
  in
  let built =
    Obs.Metrics.counter_value
      (Obs.Metrics.snapshot Obs.Metrics.default)
      "crash_gen.extras_built"
  in
  Alcotest.(check bool)
    (Printf.sprintf "candidates (%d) dwarf tested images (%d)"
       stats.candidates stats.tested)
    true
    (stats.candidates > 50 * stats.tested);
  Alcotest.(check int) "extras built = extras handed out" !handed built

let suite =
  [ QCheck_alcotest.to_alcotest prop_closure_vs_model;
    QCheck_alcotest.to_alcotest prop_images_vs_model;
    Alcotest.test_case "extras lists built only for tested images" `Quick
      test_extras_built_guard ]
