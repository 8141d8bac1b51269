(* Functional tests for every tested NVM program: each store must behave
   like a model map over its supported operations, in both the
   as-published (buggy) and repaired configurations — crash-consistency
   defects must never change failure-free semantics. Includes qcheck
   properties over random op sequences and persistence-reload checks. *)

module W = Witcher
module R = Stores.Registry

let model_outputs ops =
  let m = Hashtbl.create 64 in
  List.map
    (fun op ->
       match op with
       | W.Op.Insert (k, v) -> Hashtbl.replace m k v; W.Output.Ok
       | W.Op.Update (k, v) ->
         if Hashtbl.mem m k then (Hashtbl.replace m k v; W.Output.Ok)
         else W.Output.Not_found
       | W.Op.Delete k ->
         if Hashtbl.mem m k then (Hashtbl.remove m k; W.Output.Ok)
         else W.Output.Not_found
       | W.Op.Query k ->
         (match Hashtbl.find_opt m k with
          | Some v -> W.Output.Found v
          | None -> W.Output.Not_found)
       | W.Op.Scan (k, n) ->
         let keys =
           Hashtbl.fold (fun k' _ acc -> if k' >= k then k' :: acc else acc) m []
           |> List.sort compare
           |> List.filteri (fun i _ -> i < n)
         in
         W.Output.Vals (List.map (Hashtbl.find m) keys))
    ops

let run_against_model store ops =
  let module S = (val (store : W.Store_intf.instance)) in
  let r = W.Driver.record (module S) ops in
  let expected = Array.of_list (model_outputs ops) in
  let rec first_bad i =
    if i >= Array.length expected then None
    else if not (W.Output.equal r.outputs.(i) expected.(i)) then
      Some
        (Printf.sprintf "op%d %s: got %s want %s" (i + 1)
           (W.Op.desc (List.nth ops i))
           (W.Output.to_string r.outputs.(i))
           (W.Output.to_string expected.(i)))
    else first_bad (i + 1)
  in
  first_bad 0

let functional_case name store ~n_ops ~seed =
  Alcotest.test_case name `Quick (fun () ->
      let module S = (val (store : W.Store_intf.instance)) in
      let wl = { W.Workload.default with n_ops; seed } in
      let wl = if S.supports_scan then wl else W.Workload.no_scan wl in
      match run_against_model store (W.Workload.generate wl) with
      | None -> ()
      | Some msg -> Alcotest.fail msg)

(* Reload check: record a run, reopen the final image, and verify every
   live key is still there (durability of the committed state). *)
let reload_case name (e : R.entry) =
  Alcotest.test_case (name ^ " reload") `Quick (fun () ->
      let store = e.fixed () in
      let module S = (val store) in
      let wl = { W.Workload.default with n_ops = 120 } in
      let wl = if S.supports_scan then wl else W.Workload.no_scan wl in
      let ops = W.Workload.generate wl in
      let r = W.Driver.record (module S) ops in
      (* final model state *)
      let m = Hashtbl.create 64 in
      List.iter
        (fun op ->
           match op with
           | W.Op.Insert (k, v) -> Hashtbl.replace m k v
           | W.Op.Update (k, v) -> if Hashtbl.mem m k then Hashtbl.replace m k v
           | W.Op.Delete k -> Hashtbl.remove m k
           | W.Op.Query _ | W.Op.Scan _ -> ())
        ops;
      let img = Nvm.Pmem.copy r.final in
      let queries = Hashtbl.fold (fun k v acc -> (k, v) :: acc) m [] in
      let got =
        W.Driver.resume (module S) ~image:img
          ~ops:(Array.of_list (List.map (fun (k, _) -> W.Op.Query k) queries))
          ~from_op:0 ~fuel:W.Engine.default_cfg.fuel
      in
      List.iteri
        (fun i (k, v) ->
           Alcotest.(check string)
             (Printf.sprintf "key %d survives reload" k)
             (W.Output.to_string (W.Output.Found v))
             (W.Output.to_string got.(i)))
        queries)

(* qcheck: arbitrary op sequences agree with the model. *)
let op_gen =
  let open QCheck2.Gen in
  let key = int_range 1 40 in
  let value = map (Printf.sprintf "v%04d") (int_range 0 9999) in
  frequency
    [ (4, map2 (fun k v -> W.Op.Insert (k, v)) key value);
      (2, map2 (fun k v -> W.Op.Update (k, v)) key value);
      (2, map (fun k -> W.Op.Delete k) key);
      (3, map (fun k -> W.Op.Query k) key) ]

let model_property name mk =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:(name ^ " = model (random ops)") ~count:30
       QCheck2.Gen.(list_size (int_range 1 80) op_gen)
       (fun ops -> run_against_model (mk ()) ops = None))

(* Dense small-keyspace workloads hammer collision/rebalance paths. *)
let dense_case name store =
  Alcotest.test_case (name ^ " dense keys") `Quick (fun () ->
      let module S = (val (store : W.Store_intf.instance)) in
      let wl =
        { W.Workload.default with n_ops = 250; key_space = 60; seed = 9 }
      in
      let wl = if S.supports_scan then wl else W.Workload.no_scan wl in
      match run_against_model store (W.Workload.generate wl) with
      | None -> ()
      | Some msg -> Alcotest.fail msg)

let kv_suites =
  List.concat_map
    (fun (e : R.entry) ->
       if e.group = R.Non_kv then []
       else
         [ functional_case (e.name ^ " buggy") (e.buggy ()) ~n_ops:250 ~seed:42;
           functional_case (e.name ^ " fixed") (e.fixed ()) ~n_ops:250 ~seed:42;
           functional_case (e.name ^ " seed2") (e.buggy ()) ~n_ops:250 ~seed:1337;
           dense_case e.name (e.buggy ());
           reload_case e.name e;
           model_property e.name e.fixed ])
    R.all

(* Non-KV programs have their own semantics. *)
let test_pqueue () =
  let e = Option.get (R.find "p-queue") in
  let module S = (val e.buggy ()) in
  let ops =
    [ W.Op.Insert (1, "aa"); W.Op.Insert (2, "bb"); W.Op.Query 0;
      W.Op.Delete 0; W.Op.Query 0; W.Op.Insert (3, "cc");
      W.Op.Scan (0, 0); W.Op.Delete 0; W.Op.Delete 0; W.Op.Delete 0 ]
  in
  let r = W.Driver.record (module S) ops in
  let expect =
    [ W.Output.Ok; W.Output.Ok; W.Output.Found "aa"; W.Output.Found "aa";
      W.Output.Found "bb"; W.Output.Ok; W.Output.Vals [ "bb"; "cc" ];
      W.Output.Found "bb"; W.Output.Found "cc"; W.Output.Not_found ]
  in
  List.iteri
    (fun i e ->
       Alcotest.(check string) (Printf.sprintf "op%d" i)
         (W.Output.to_string e) (W.Output.to_string r.outputs.(i)))
    expect

let test_parray () =
  let e = Option.get (R.find "p-array") in
  let module S = (val e.fixed ()) in
  let ops =
    [ W.Op.Insert (3, "xx"); W.Op.Query 3; W.Op.Insert (200, "yy");
      W.Op.Query 200; W.Op.Scan (0, 0); W.Op.Delete 3; W.Op.Query 3 ]
  in
  let r = W.Driver.record (module S) ops in
  let expect =
    [ W.Output.Ok; W.Output.Found "xx"; W.Output.Ok; W.Output.Found "yy";
      W.Output.Vals [ "xx"; "yy" ]; W.Output.Ok; W.Output.Not_found ]
  in
  List.iteri
    (fun i e ->
       Alcotest.(check string) (Printf.sprintf "op%d" i)
         (W.Output.to_string e) (W.Output.to_string r.outputs.(i)))
    expect

let suite =
  kv_suites
  @ [ Alcotest.test_case "p-queue semantics" `Quick test_pqueue;
      Alcotest.test_case "p-array semantics" `Quick test_parray ]
