(* Crash-image feasibility against the independent persistency model
   (Persist_model): hand-written litmus traces pinning the model and
   Yat's exhaustive enumeration to crash states read off the Intel SDM,
   Crash_sim's closure slices on random store/flush/fence sequences,
   every image Crash_gen hands out on every registry store, and a guard
   that generation builds extras lists only for the images it hands
   out. *)

open Nvm
module W = Witcher
module R = Stores.Registry
module M = Persist_model

(* --- Litmus traces: the model against the SDM --- *)

(* Persist_model and Crash_sim agree by property, but both encode one
   reading of §4.3.1; these traces pin that reading to the Intel SDM.
   Each has at most 4 stores on at most 2 lines (word w is at byte 8w,
   so words 0-7 are line 0 and 8-15 line 1). The allowed crash states
   at each fence, before it takes effect, are written by hand from the
   SDM's text:

   - CLWB writes back the line holding its address, so it covers the
     stores made to that line before it and none made after;
   - the write-back is ordered only by a later SFENCE (or other store
     fence), so a line is durable only once a fence follows its CLWB;
   - until then the line may be evicted at any moment with whatever it
     holds, and x86 stores reach the cache in program order, so the
     stores of one line that survive are a prefix of them, independent
     of any other line.

   A row lists the stores that persisted, in program order. *)

type lit = Store of string * int | Clwb of int | Sfence

let litmus =
  [ ( "one line persists as a prefix",
      [ Store ("a", 0); Store ("b", 1); Store ("c", 2); Sfence ],
      [ [ []; [ "a" ]; [ "a"; "b" ]; [ "a"; "b"; "c" ] ] ] );
    ( "two lines persist independently",
      [ Store ("a", 0); Store ("b", 8); Store ("c", 1); Sfence ],
      [ [ []; [ "a" ]; [ "a"; "c" ]; [ "b" ]; [ "a"; "b" ];
          [ "a"; "b"; "c" ] ] ] );
    ( "a flush with no later fence guarantees nothing",
      [ Store ("a", 0); Clwb 0; Store ("b", 8); Clwb 1; Sfence ],
      [ [ []; [ "a" ]; [ "b" ]; [ "a"; "b" ] ] ] );
    ( "a store after the flush is not covered by it",
      [ Store ("a", 0); Clwb 0; Store ("b", 1); Sfence; Sfence ],
      [ [ []; [ "a" ]; [ "a"; "b" ] ];
        [ [ "a" ]; [ "a"; "b" ] ] ] );
    ( "a fence after a flush makes it durable",
      [ Store ("a", 0); Store ("b", 8); Clwb 0; Sfence; Store ("c", 9);
        Store ("d", 1); Clwb 0; Clwb 1; Sfence; Sfence ],
      [ [ []; [ "a" ]; [ "b" ]; [ "a"; "b" ] ];
        [ [ "a" ]; [ "a"; "b" ]; [ "a"; "b"; "c" ]; [ "a"; "d" ];
          [ "a"; "b"; "d" ]; [ "a"; "b"; "c"; "d" ] ];
        [ [ "a"; "b"; "c"; "d" ] ] ] ) ]

(* States compare as sorted lists of sorted label lists; duplicates are
   kept, so an enumeration that yields one state twice fails. *)
let canon rows = List.sort compare (List.map (List.sort compare) rows)

let subsets l =
  List.fold_right (fun x acc -> acc @ List.map (fun s -> x :: s) acc) l [ [] ]

let check_litmus (steps, rows) () =
  let tr = Trace.create () in
  let m = M.create () in
  let stores = ref [] in  (* (label, tid, addr, value), newest first *)
  let fences = ref [] and model_rows = ref [] in
  let feed tid = M.feed m (Trace.get tr tid) in
  List.iter
    (function
      | Store (l, w) ->
        let v = List.length !stores + 1 in
        let tid =
          Trace.add_store_u64 tr ~sid:(Sid.intern ("lit." ^ l)) ~addr:(w * 8)
            ~v ~dd:Taint.empty ~cd:Taint.empty ~op:0
        in
        feed tid;
        stores := (l, tid, w * 8, v) :: !stores
      | Clwb line ->
        feed (Trace.add_flush tr ~sid:(Sid.intern "lit.clwb") ~line ~op:0)
      | Sfence ->
        (* the model's states: guaranteed ∪ prefix-closed extras *)
        let states =
          List.filter_map
            (fun set ->
               let tids = List.map (fun (_, t, _, _) -> t) set in
               let extras =
                 List.filter (fun t -> not (M.guaranteed m t)) tids
               in
               let kept (_, t, _, _) =
                 (not (M.guaranteed m t)) || List.mem t tids
               in
               if List.for_all kept !stores && M.prefix_closed m extras then
                 Some (List.map (fun (l, _, _, _) -> l) set)
               else None)
            (subsets (List.rev !stores))
        in
        model_rows := states :: !model_rows;
        let tid = Trace.add_fence tr ~sid:(Sid.intern "lit.sfence") ~op:0 in
        fences := tid :: !fences;
        feed tid)
    steps;
  let fences = List.rev !fences and stores = List.rev !stores in
  Alcotest.(check int) "one row per fence" (List.length fences)
    (List.length rows);
  let states = Alcotest.(list (list string)) in
  List.iteri
    (fun i (want, got) ->
       Alcotest.check states (Printf.sprintf "model at fence %d" (i + 1))
         (canon want) (canon got))
    (List.combine rows (List.rev !model_rows));
  (* Yat's images at each fence, read back as the stores they hold *)
  let yat = Hashtbl.create 8 in
  ignore
    (W.Yat.exhaustive ~trace:tr ~pool_size:4096
       ~on_image:(fun im ->
           let held =
             List.filter_map
               (fun (l, tid, addr, v) ->
                  match Pmem.read_u64 im.img addr with
                  | 0 -> None
                  | x when x = v && tid < im.crash_tid -> Some l
                  | x -> Alcotest.failf "store %s reads %d in a Yat image" l x)
               stores
           in
           Hashtbl.add yat im.crash_tid held;
           `Continue)
       ());
  List.iteri
    (fun i (want, fence) ->
       Alcotest.check states (Printf.sprintf "Yat at fence %d" (i + 1))
         (canon want) (canon (Hashtbl.find_all yat fence)))
    (List.combine rows fences)

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
  List.map
    (fun (name, steps, rows) ->
       Alcotest.test_case ("litmus: " ^ name) `Quick
         (check_litmus (steps, rows)))
    litmus
  @ [ QCheck_alcotest.to_alcotest prop_closure_vs_model;
      QCheck_alcotest.to_alcotest prop_images_vs_model;
      Alcotest.test_case "extras lists built only for tested images" `Quick
        test_extras_built_guard ]
