(* Unit and property tests for the NVM substrate: tainted values, the
   trace recorder, the pool, the instrumented context and, most
   importantly, the persistence state machine (flush/fence guarantees and
   per-line prefix-closure feasibility). *)

open Nvm

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* --- Vec --- *)

let test_vec () =
  let v = Vec.create ~dummy:0 () in
  for i = 0 to 99 do Vec.push v i done;
  check "len" 100 (Vec.length v);
  check "get" 42 (Vec.get v 42);
  Vec.set v 42 7;
  check "set" 7 (Vec.get v 42);
  check "fold" (4950 - 42 + 7) (Vec.fold_left ( + ) 0 v)

(* --- Taint / Tv --- *)

let test_taint () =
  let t1 = Taint.singleton 1 and t2 = Taint.singleton 2 in
  let u = Taint.union t1 t2 in
  check "card" 2 (Taint.cardinal u);
  checkb "mem" true (Taint.mem 1 u);
  checkb "empty" true (Taint.is_empty Taint.empty)

(* qcheck: taints folded with [singleton] and [union] from random tid
   lists, from either side, agree with a sorted distinct list in
   elements, cardinal, membership, iteration order and structural
   equality; and a union that equals one of its arguments returns that
   argument, so a set that gains nothing stays one shared value. *)
let prop_taint_model =
  let tids = QCheck2.Gen.(list_size (int_range 0 40) (int_range 0 100)) in
  QCheck2.Test.make ~name:"taint = sorted-list model" ~count:500
    QCheck2.Gen.(pair tids tids)
    (fun (xs, ys) ->
       let model l = List.sort_uniq compare l in
       let agrees t l =
         let walked = ref [] in
         Taint.iter (fun x -> walked := x :: !walked) t;
         Taint.elements t = l
         && Taint.cardinal t = List.length l
         && Taint.is_empty t = (l = [])
         && List.rev !walked = l
         && List.for_all (fun x -> Taint.mem x t = List.mem x l)
              (List.init 103 (fun i -> i - 1))
       in
       let subset p q = List.for_all (fun x -> List.mem x q) p in
       let a =
         List.fold_left (fun t x -> Taint.union t (Taint.singleton x)) Taint.empty xs
       in
       let b =
         List.fold_left (fun t x -> Taint.union (Taint.singleton x) t) Taint.empty ys
       in
       let u = Taint.union a b in
       let reuses x y =
         let r = Taint.union x y in
         if subset (Taint.elements y) (Taint.elements x) then r == x
         else if subset (Taint.elements x) (Taint.elements y) then r == y
         else true
       in
       agrees a (model xs) && agrees b (model ys) && agrees u (model (xs @ ys))
       && u = Taint.union b a
       && reuses a b && reuses b a && reuses u a && reuses b u && reuses a a)

let test_tv_arith () =
  let a = Tv.make ~taint:(Taint.singleton 1) 10 in
  let b = Tv.make ~taint:(Taint.singleton 2) 32 in
  let c = Tv.add a b in
  check "value" 42 (Tv.value c);
  check "taint union" 2 (Taint.cardinal (Tv.taint c));
  let d = Tv.eq a b in
  checkb "eq false" false (Tv.to_bool d);
  check "cmp taint" 2 (Taint.cardinal (Tv.taint d))

(* --- Pmem --- *)

let test_pmem () =
  let p = Pmem.create 256 in
  Pmem.write_u64 p 8 0xdeadbeef;
  check "u64" 0xdeadbeef (Pmem.read_u64 p 8);
  Pmem.write_bytes p 100 "hello";
  Alcotest.(check string) "bytes" "hello" (Pmem.read_bytes p 100 5);
  (match Pmem.read_u64 p 252 with
   | _ -> Alcotest.fail "expected fault"
   | exception Pmem.Fault _ -> ());
  let s = Pmem.snapshot p in
  let p' = Pmem.of_snapshot s in
  check "snapshot" 0xdeadbeef (Pmem.read_u64 p' 8)

let test_pmem_cow () =
  (* 300 bytes: the last line is partial (300 - 4*64 = 44 bytes) *)
  let base = Pmem.create 300 in
  Pmem.write_u64 base 8 0x1111;
  Pmem.write_bytes base 60 "cross-line";    (* spans lines 0 and 1 *)
  Pmem.write_u8 base 299 7;                 (* last byte of partial line *)
  let before = Pmem.snapshot base in
  let v = Pmem.cow base in
  checkb "is_cow" true (Pmem.is_cow v);
  check "no lines copied yet" 0 (Pmem.overlay_lines v);
  (* fall-through reads see the base *)
  check "ro u64" 0x1111 (Pmem.read_u64 v 8);
  Alcotest.(check string) "ro cross-line" "cross-line" (Pmem.read_bytes v 60 10);
  check "ro last byte" 7 (Pmem.read_u8 v 299);
  (* writes land in the overlay, never in the base *)
  Pmem.write_u64 v 8 0x2222;
  Pmem.write_bytes v 60 "CROSS-LINE";
  Pmem.write_u8 v 299 9;
  check "overlay u64" 0x2222 (Pmem.read_u64 v 8);
  Alcotest.(check string) "overlay cross-line" "CROSS-LINE"
    (Pmem.read_bytes v 60 10);
  check "overlay last byte" 9 (Pmem.read_u8 v 299);
  Alcotest.(check string) "base untouched" before (Pmem.snapshot base);
  check "base still original" 0x1111 (Pmem.read_u64 base 8);
  (* dirty-line accounting: lines 0, 1 and the partial line 4 *)
  check "overlay lines" 3 (Pmem.overlay_lines v);
  check "cow bytes" (64 + 64 + 44) (Pmem.cow_bytes v);
  (* snapshot merges overlay over base; copy detaches *)
  let d = Pmem.copy v in
  checkb "copy is flat" false (Pmem.is_cow d);
  Alcotest.(check string) "copy = view" (Pmem.snapshot v) (Pmem.snapshot d);
  Pmem.write_u64 d 16 0xffff;
  check "view unaffected by detached copy" 0 (Pmem.read_u64 v 16);
  (* bounds checking is preserved on the view *)
  (match Pmem.read_u64 v 296 with
   | _ -> Alcotest.fail "expected fault"
   | exception Pmem.Fault _ -> ())

(* qcheck: a COW view and a flat copy are indistinguishable under any
   sequence of in-bounds writes and reads, and the base never changes. *)
let prop_cow_equals_flat =
  let size = 300 in
  QCheck2.Test.make ~name:"cow view behaves like a flat pool" ~count:200
    QCheck2.Gen.(
      list_size (int_range 1 60)
        (triple (int_range 0 4) (int_range 0 (size - 1)) (int_range 0 255)))
    (fun ops ->
       let base = Pmem.create size in
       (* non-trivial base contents *)
       for i = 0 to (size / 8) - 1 do
         Pmem.write_u64 base (i * 8) (i * 0x01010101)
       done;
       let before = Pmem.snapshot base in
       let flat = Pmem.of_snapshot before in
       let v = Pmem.cow base in
       let ok = ref true in
       List.iter
         (fun (kind, addr, value) ->
            match kind with
            | 0 ->
              let addr = min addr (size - 8) in
              Pmem.write_u64 flat addr value;
              Pmem.write_u64 v addr value
            | 1 ->
              Pmem.write_u8 flat addr value;
              Pmem.write_u8 v addr value
            | 2 ->
              (* may straddle a line boundary or hit the partial line *)
              let s = String.make (min 20 (size - addr)) (Char.chr value) in
              Pmem.write_bytes flat addr s;
              Pmem.write_bytes v addr s
            | 3 ->
              let addr = min addr (size - 8) in
              ok := !ok && Pmem.read_u64 flat addr = Pmem.read_u64 v addr
            | _ ->
              let len = min 20 (size - addr) in
              ok := !ok
                    && Pmem.read_bytes flat addr len = Pmem.read_bytes v addr len)
         ops;
       !ok
       && Pmem.snapshot flat = Pmem.snapshot v
       && Pmem.snapshot base = before)

(* qcheck: a pool of three full directory pages plus a partial page that
   ends in a partial line, against a plain [Bytes.t] model. Random writes,
   some crossing a line or a page, and reads run on a base-less pool or
   on a view over a non-zero base. Afterwards the pool's contents equal
   the model and the base is untouched; a [copy] is detached both ways;
   and the view holds, copied and digests exactly the distinct lines
   written, in ascending line order. *)
let prop_pmem_multi_page =
  let size = (3 * 4096) + 300 in
  let addr =
    QCheck2.Gen.(
      oneof
        [ int_range 0 (size - 1);
          map2 (fun k d -> (k * 4096) - d) (int_range 1 3) (int_range 1 24);
          map2 (fun k d -> (k * 64) - d) (int_range 1 (size / 64))
            (int_range 1 12);
          map (fun d -> size - d) (int_range 1 24) ])
  in
  QCheck2.Test.make ~name:"multi-page pool matches a bytes model" ~count:300
    QCheck2.Gen.(
      triple bool
        (list_size (int_range 1 80)
           (quad (int_range 0 5) addr (int_range 0 255) (int_range 0 40)))
        (pair addr addr))
    (fun (view, ops, (a, b)) ->
       let model = Bytes.make size '\000' in
       let base = Pmem.create size in
       if view then
         for i = 0 to (size / 8) - 1 do
           let w = (i * 0x01010101) + 1 in
           Pmem.write_u64 base (i * 8) w;
           Bytes.set_int64_le model (i * 8) (Int64.of_int w)
         done;
       let before = Pmem.snapshot base in
       let p = if view then Pmem.cow base else base in
       let written = Hashtbl.create 16 in
       let touch addr len =
         if len > 0 then
           for l = addr / 64 to (addr + len - 1) / 64 do
             Hashtbl.replace written l ()
           done
       in
       let ok = ref true in
       List.iter
         (fun (kind, addr, v, len) ->
            match kind with
            | 0 ->
              let addr = min addr (size - 8) in
              Pmem.write_u64 p addr v;
              Bytes.set_int64_le model addr (Int64.of_int v);
              touch addr 8
            | 1 ->
              Pmem.write_u8 p addr v;
              Bytes.set model addr (Char.chr v);
              touch addr 1
            | 2 ->
              let len = min len (size - addr) in
              let s = String.init len (fun i -> Char.chr ((v + i) land 0xff)) in
              Pmem.write_bytes p addr s;
              Bytes.blit_string s 0 model addr len;
              touch addr len
            | 3 ->
              let addr = min addr (size - 8) in
              ok := !ok
                    && Pmem.read_u64 p addr
                       = Int64.to_int (Bytes.get_int64_le model addr)
            | 4 ->
              ok := !ok
                    && Pmem.read_u8 p addr = Char.code (Bytes.get model addr)
            | _ ->
              let len = min len (size - addr) in
              ok := !ok
                    && Pmem.read_bytes p addr len
                       = Bytes.sub_string model addr len)
         ops;
       let snap = Bytes.to_string model in
       let lines =
         List.sort compare (Hashtbl.fold (fun l () acc -> l :: acc) written [])
       in
       let line_len l = min 64 (size - (l * 64)) in
       let if_view n = if view then n else 0 in
       let own_lines_ok =
         Pmem.lines p = List.length lines
         && Pmem.overlay_lines p = if_view (List.length lines)
         && Pmem.cow_bytes p
            = if_view (List.fold_left (fun n l -> n + line_len l) 0 lines)
         && ((not view)
             || Pmem.digest ~seed:7 p
                = List.fold_left
                    (fun h l ->
                       Pmem.mix_string (Pmem.mix h l)
                         (String.sub snap (l * 64) (line_len l)))
                    7 lines)
       in
       let content_ok = !ok && Pmem.snapshot p = snap in
       (* a copy is detached in both directions *)
       let c = Pmem.copy p in
       let copy_ok = (not (Pmem.is_cow c)) && Pmem.snapshot c = snap in
       Pmem.write_u8 p a (Char.code snap.[a] lxor 0xff);
       Pmem.write_u8 c b (Char.code snap.[b] lxor 0xff);
       let detached =
         (a = b || Pmem.read_u8 p b = Char.code snap.[b])
         && (a = b || Pmem.read_u8 c a = Char.code snap.[a])
         && Pmem.read_u8 p a <> Char.code snap.[a]
         && Pmem.read_u8 c b <> Char.code snap.[b]
       in
       content_ok && own_lines_ok && copy_ok && detached
       && ((not view) || Pmem.snapshot base = before))

(* --- Ctx: tracing, guards, line splitting --- *)

let test_ctx_trace () =
  let p = Pmem.create 1024 in
  let ctx = Ctx.create ~mode:Record p in
  Ctx.op_begin ctx ~index:0 ~desc:"t";
  let v = Ctx.read_u64 ctx ~sid:"a" 0 in
  Ctx.write_u64 ctx ~sid:"b" 64 (Tv.add v Tv.one);
  let tr = Ctx.trace ctx in
  (* event 0 is Op_begin, 1 the load, 2 the store *)
  (match Trace.get tr 2 with
   | Trace.Store s ->
     check "dd card" 1 (Taint.cardinal s.s_dd);
     checkb "dd is load 1" true (Taint.mem 1 s.s_dd)
   | _ -> Alcotest.fail "expected store");
  (* guarded load carries cd *)
  let g = Ctx.read_u64 ctx ~sid:"guard" 8 in
  Ctx.when_ ctx (Tv.retaint Tv.one (Tv.taint g)) (fun () ->
      ignore (Ctx.read_u64 ctx ~sid:"inner" 16));
  (match Trace.get tr (Trace.length tr - 1) with
   | Trace.Load l -> checkb "cd nonempty" false (Taint.is_empty l.l_cd)
   | _ -> Alcotest.fail "expected load")

(* Pointer-chase guards: the op's first [read_ptr] of an address guards
   the rest of the op; a re-read returns a value with its own taint but
   adds no guard, and the next op starts from no guards. *)
let test_ctx_ptr_guards () =
  let last_store_cd ctx =
    Ctx.write_u64 ctx ~sid:"w" 64 Tv.one;
    let tr = Ctx.trace ctx in
    match Trace.get tr (Trace.length tr - 1) with
    | Trace.Store s -> Taint.elements s.s_cd
    | _ -> Alcotest.fail "expected store"
  in
  let tids = Alcotest.(check (list int)) in
  let ctx = Ctx.create ~mode:Record (Pmem.create 1024) in
  (* event 0 is Op_begin, 1 and 2 the loads of address 0, 3 the store *)
  Ctx.op_begin ctx ~index:0 ~desc:"t";
  ignore (Ctx.read_ptr ctx ~sid:"p.first" 0);
  let again = Ctx.read_ptr ctx ~sid:"p.again" 0 in
  tids "a re-read adds no guard" [ 1 ] (last_store_cd ctx);
  tids "a re-read keeps its own taint" [ 2 ] (Taint.elements (Tv.taint again));
  (* 4 loads address 8, 5 is the store *)
  ignore (Ctx.read_ptr ctx ~sid:"p.other" 8);
  tids "another address guards" [ 1; 4 ] (last_store_cd ctx);
  (* 6 Op_end, 7 Op_begin, 8 the load *)
  Ctx.op_end ctx ~index:0;
  Ctx.op_begin ctx ~index:1 ~desc:"t";
  ignore (Ctx.read_ptr ctx ~sid:"p.first" 0);
  tids "the next op admits the address again" [ 8 ] (last_store_cd ctx);
  let quiet = Ctx.create ~mode:Record ~taintless:true (Pmem.create 1024) in
  Ctx.op_begin quiet ~index:0 ~desc:"t";
  let v = Ctx.read_ptr quiet ~sid:"p.first" 0 in
  ignore (Ctx.read_ptr quiet ~sid:"p.other" 8);
  tids "a taintless context records no guards" [] (last_store_cd quiet);
  tids "nor value taints" [] (Taint.elements (Tv.taint v))

(* Leaving a guard scope restores the set in force when it opened: a
   scope that took no new pointer guard hands back the enclosing set
   itself and allocates nothing, while a pointer guard taken inside an
   inner scope outlives it, since it guards the rest of the op. *)
let test_ctx_guard_scopes () =
  let tid v = List.hd (Taint.elements (Tv.taint v)) in
  let tids = Alcotest.(check (list int)) in
  let ctx = Ctx.create ~mode:Record (Pmem.create 1024) in
  Ctx.op_begin ctx ~index:0 ~desc:"t";
  let root = tid (Ctx.read_ptr ctx ~sid:"p.root" 0) in
  let outer = Ctx.read_u64 ctx ~sid:"g.outer" 8 in
  let inner = Ctx.read_u64 ctx ~sid:"g.inner" 16 in
  Ctx.push_guard ctx (Tv.taint outer);
  let enclosing = ctx.Ctx.cd in
  Ctx.push_guard ctx (Tv.taint inner);
  ignore (Ctx.read_u64 ctx ~sid:"plain" 24);
  let before = Gc.minor_words () in
  Ctx.pop_guard ctx;
  let words = Gc.minor_words () -. before in
  checkb "a scope without a new pointer restores the enclosing set" true
    (ctx.Ctx.cd == enclosing);
  Alcotest.(check (float 0.)) "and allocates nothing on exit" 0. words;
  Ctx.push_guard ctx (Tv.taint inner);
  let ptr = tid (Ctx.read_ptr ctx ~sid:"p.inner" 32) in
  Ctx.pop_guard ctx;
  tids "a pointer guard taken inside survives the pop"
    [ root; tid outer; ptr ] (Taint.elements ctx.Ctx.cd);
  Ctx.pop_guard ctx;
  tids "leaving every scope keeps the op's pointer guards" [ root; ptr ]
    (Taint.elements ctx.Ctx.cd);
  Ctx.op_end ctx ~index:0;
  Ctx.op_begin ctx ~index:1 ~desc:"t";
  tids "the next op starts from no guards" [] (Taint.elements ctx.Ctx.cd)

(* Complexity guard: buggy level-hash's rehash re-reads its two table
   pointers hundreds of times in one op. With one guard per address per
   op no event's control taint holds more than 8 loads at 1,000 ops; with
   a guard per re-read the largest held 507. *)
let test_ptr_guards_bounded () =
  let e = Option.get (Stores.Registry.find "level-hash") in
  let module S = (val e.buggy ()) in
  let wl = { Witcher.Workload.default with n_ops = 1000 } in
  let wl = if S.supports_scan then wl else Witcher.Workload.no_scan wl in
  let r = Witcher.Driver.record (module S) (Witcher.Workload.generate wl) in
  let largest = ref 0 in
  for i = 0 to Trace.length r.trace - 1 do
    largest := max !largest (Taint.cardinal (Trace.cd_at r.trace i))
  done;
  checkb (Printf.sprintf "largest cd (%d loads) <= 8" !largest) true (!largest <= 8)

let test_ctx_line_split () =
  let p = Pmem.create 1024 in
  let ctx = Ctx.create ~mode:Record p in
  Ctx.op_begin ctx ~index:0 ~desc:"t";
  (* 16 bytes crossing a line boundary at 64 *)
  Ctx.write_bytes ctx ~sid:"x" 56 (Tv.blob (String.make 16 'z'));
  let tr = Ctx.trace ctx in
  check "two stores" 2 tr.n_stores;
  (match Trace.get tr 1, Trace.get tr 2 with
   | Trace.Store a, Trace.Store b ->
     check "first len" 8 a.s_len;
     check "second len" 8 b.s_len;
     check "second addr" 64 b.s_addr
   | _ -> Alcotest.fail "stores expected")

let test_ctx_fuel () =
  let p = Pmem.create 1024 in
  let ctx = Ctx.create ~mode:Quiet ~fuel:10 p in
  match
    for _ = 1 to 20 do ignore (Ctx.read_u64 ctx ~sid:"x" 0) done
  with
  | () -> Alcotest.fail "expected fuel exhaustion"
  | exception Ctx.Fuel_exhausted -> ()

(* --- Trace: the columnar encoding round-trips every event kind --- *)

let taint_of = List.fold_left (fun t x -> Taint.union t (Taint.singleton x)) Taint.empty

(* Append one drawn event through the call that records its kind, and
   return the event [Trace.get] must rebuild. [k] picks the kind (u64 and
   multi-byte stores apart); [a] is the address or line and picks the sid,
   [b] the length or payload offset, [v] the u64 value or tx id, [s] the
   payload source or op description. *)
let rt_append tr (k, (a, b, op, v), (s, dd, cd)) =
  let tid = Trace.length tr in
  let sid = Sid.intern (Printf.sprintf "rt.%d" (a mod 5)) in
  let dd = taint_of dd and cd = taint_of cd in
  let store ~len data =
    Trace.Store
      { s_tid = tid; s_sid = sid; s_addr = a; s_len = len; s_data = data;
        s_dd = dd; s_cd = cd; s_op = op }
  in
  match k with
  | 0 ->
    ignore (Trace.add_load tr ~sid ~addr:a ~len:b ~cd ~op);
    Trace.Load { l_tid = tid; l_sid = sid; l_addr = a; l_len = b; l_cd = cd; l_op = op }
  | 1 ->
    ignore (Trace.add_store_u64 tr ~sid ~addr:a ~v ~dd ~cd ~op);
    let data = Bytes.create 8 in
    Bytes.set_int64_le data 0 (Int64.of_int v);
    store ~len:8 (Bytes.to_string data)
  | 2 ->
    let off = b mod String.length s in
    let len = String.length s - off in
    ignore (Trace.add_store_sub tr ~sid ~addr:a ~src:s ~src_off:off ~len ~dd ~cd ~op);
    store ~len (String.sub s off len)
  | 3 ->
    ignore (Trace.add_flush tr ~sid ~line:a ~op);
    Trace.Flush { f_tid = tid; f_sid = sid; f_line = a; f_op = op }
  | 4 ->
    ignore (Trace.add_fence tr ~sid ~op);
    Trace.Fence { n_tid = tid; n_sid = sid; n_op = op }
  | _ ->
    let ev : Trace.event =
      match k with
      | 5 -> Log_range { g_tid = tid; g_sid = sid; g_addr = a; g_len = b; g_tx = v; g_op = op }
      | 6 -> Tx_begin { t_tid = tid; t_tx = v; t_op = op }
      | 7 -> Tx_commit { t_tid = tid; t_tx = v; t_op = op }
      | 8 -> Tx_abort { t_tid = tid; t_tx = v; t_op = op }
      | 9 -> Op_begin { o_tid = tid; o_index = op; o_desc = s }
      | _ -> Op_end { o_tid = tid; o_index = op }
    in
    Trace.push tr ev;
    ev

(* The columns the trace defines for [ev]'s kind, read back at tid [i]. *)
let rt_columns_ok tr i (ev : Trace.event) =
  let k = Trace.kind_at tr i and sid = Trace.sid_at tr i
  and addr = Trace.addr_at tr i and len = Trace.len_at tr i
  and op = Trace.op_at tr i and tx = Trace.tx_at tr i in
  match ev with
  | Load l ->
    k = Trace.k_load && sid = l.l_sid && addr = l.l_addr && len = l.l_len
    && op = l.l_op && Trace.cd_at tr i = l.l_cd
  | Store s ->
    k = Trace.k_store && sid = s.s_sid && addr = s.s_addr && len = s.s_len
    && op = s.s_op && Trace.dd_at tr i = s.s_dd && Trace.cd_at tr i = s.s_cd
    && Trace.store_payload tr i = s.s_data
  | Flush f -> k = Trace.k_flush && sid = f.f_sid && addr = f.f_line && op = f.f_op
  | Fence f -> k = Trace.k_fence && sid = f.n_sid && op = f.n_op
  | Log_range g ->
    k = Trace.k_log_range && sid = g.g_sid && addr = g.g_addr && len = g.g_len
    && tx = g.g_tx && op = g.g_op
  | Tx_begin x -> k = Trace.k_tx_begin && tx = x.t_tx && op = x.t_op
  | Tx_commit x -> k = Trace.k_tx_commit && tx = x.t_tx && op = x.t_op
  | Tx_abort x -> k = Trace.k_tx_abort && tx = x.t_tx && op = x.t_op
  | Op_begin o -> k = Trace.k_op_begin && op = o.o_index
  | Op_end o -> k = Trace.k_op_end && op = o.o_index

(* qcheck: random sequences of all ten event kinds (taints of up to 12
   members) appended to a trace of 16-event segments read back as the
   list appended, through every accessor: rebuilt events, columns, store
   payloads, the live-window walk and the kind counts. *)
let prop_trace_roundtrip =
  let open QCheck2.Gen in
  let members = list_size (int_range 0 12) (int_range 0 40) in
  let step =
    triple (int_range 0 10)
      (quad (int_range 0 4000) (int_range 1 64) (int_range 0 9) int)
      (triple (string_size (int_range 1 24)) members members)
  in
  QCheck2.Test.make ~name:"trace round-trip = event list" ~count:200
    (list_size (int_range 0 300) step)
    (fun steps ->
       let tr = Trace.create ~seg_shift:4 () in
       let evs =
         List.rev (List.fold_left (fun acc st -> rt_append tr st :: acc) [] steps)
       in
       let walked = ref [] in
       Trace.iter (fun ev -> walked := ev :: !walked) tr;
       let count p = List.length (List.filter p evs) in
       List.for_all Fun.id
         (List.mapi (fun i ev -> Trace.get tr i = ev && rt_columns_ok tr i ev) evs)
       && List.rev !walked = evs
       && Trace.stats tr
          = ( count (function Trace.Load _ -> true | _ -> false),
              count (function Trace.Store _ -> true | _ -> false),
              count (function Trace.Flush _ -> true | _ -> false),
              count (function Trace.Fence _ -> true | _ -> false) ))

(* --- Crash_sim: flush/fence semantics --- *)

(* The simulator is trace-backed: tests append events to a live trace and
   feed each one by index immediately, so assertions can interleave with
   the event stream exactly as before. *)
let sim_pair ~pool_size =
  let tr = Trace.create () in
  (tr, Crash_sim.create ~trace:tr ~pool_size)

let sim_store tr sim addr data =
  let tid =
    Trace.add_store_sub tr ~sid:(Sid.intern "s") ~addr ~src:data ~src_off:0
      ~len:(String.length data) ~dd:Taint.empty ~cd:Taint.empty ~op:0
  in
  Crash_sim.on_index sim tid;
  tid

let sim_flush tr sim line =
  Crash_sim.on_index sim (Trace.add_flush tr ~sid:(Sid.intern "fl") ~line ~op:0)

let sim_fence tr sim =
  Crash_sim.on_index sim (Trace.add_fence tr ~sid:(Sid.intern "fe") ~op:0)

let test_sim_guarantee () =
  let tr, sim = sim_pair ~pool_size:1024 in
  let t0 = sim_store tr sim 0 "aaaaaaaa" in
  checkb "dirty not guaranteed" false (Crash_sim.is_guaranteed sim t0);
  sim_flush tr sim 0;
  checkb "flushed not yet guaranteed" false (Crash_sim.is_guaranteed sim t0);
  sim_fence tr sim;
  checkb "fenced guaranteed" true (Crash_sim.is_guaranteed sim t0);
  (* a store after the flush is not covered *)
  let t1 = sim_store tr sim 8 "bbbbbbbb" in
  sim_fence tr sim;
  checkb "unflushed store survives fences" false (Crash_sim.is_guaranteed sim t1)

let test_sim_closure () =
  let tr, sim = sim_pair ~pool_size:1024 in
  (* two stores on line 0, one on line 1 *)
  let t0 = sim_store tr sim 0 "11111111" in
  let t1 = sim_store tr sim 8 "22222222" in
  let t2 = sim_store tr sim 64 "33333333" in
  (* persisting t1 forces t0 (same line, earlier), not t2 *)
  (match Crash_sim.feasible_closure sim ~avoid:t2 t1 with
   | Some c ->
     Alcotest.(check (list int)) "closure" [ t0; t1 ] (Crash_sim.closure_tids c)
   | None -> Alcotest.fail "expected feasible");
  (* cannot persist t1 while avoiding t0 *)
  checkb "prefix conflict" true
    (Option.is_none (Crash_sim.feasible_closure sim ~avoid:t0 t1))

let test_sim_materialize () =
  let tr, sim = sim_pair ~pool_size:1024 in
  ignore (sim_store tr sim 0 "11111111");
  ignore (sim_store tr sim 0 "22222222");
  sim_flush tr sim 0;
  sim_fence tr sim;
  (* both guaranteed; latest wins in the image *)
  let img = Crash_sim.materialize sim ~extras:[] in
  Alcotest.(check string) "latest bytes" "22222222" (Pmem.read_bytes img 0 8)

(* qcheck: any feasible extras set is per-line prefix-closed *)
let prop_prefix_closed =
  QCheck2.Test.make ~name:"feasible extras are per-line prefix-closed"
    ~count:100
    QCheck2.Gen.(list_size (int_range 1 40) (pair (int_range 0 31) (int_range 0 2)))
    (fun ops ->
       let tr, sim = sim_pair ~pool_size:4096 in
       let stores = ref [] in
       List.iter
         (fun (word, kind) ->
            match kind with
            | 0 | 1 ->
              let addr = word * 8 in
              let tid = sim_store tr sim addr "xxxxxxxx" in
              stores := (tid, addr) :: !stores
            | _ ->
              sim_flush tr sim (Pmem.line_of_addr (word * 8));
              sim_fence tr sim)
         ops;
       match !stores with
       | [] -> true
       | (t0, _) :: _ ->
         let extras = Crash_sim.closure_tids (Crash_sim.closure sim t0) in
         (* every extra's same-line predecessors are in the set or
            guaranteed *)
         List.for_all
           (fun e ->
              List.for_all
                (fun (t, a) ->
                   let e_addr = List.assoc e !stores in
                   if t < e
                   && Pmem.line_of_addr a = Pmem.line_of_addr e_addr then
                     List.mem t extras || Crash_sim.is_guaranteed sim t
                   else true)
                !stores)
           extras)

(* qcheck: a COW image holds exactly the crash state the persistency
   model builds from scratch (its guaranteed stores, then the extras) for
   every feasible extras set the generator reaches. *)
let prop_materialize_model =
  QCheck2.Test.make ~name:"cow materialize = model image" ~count:100
    QCheck2.Gen.(list_size (int_range 1 40) (pair (int_range 0 31) (int_range 0 2)))
    (fun ops ->
       let tr, sim = sim_pair ~pool_size:4096 in
       let store_tids = ref [] in
       List.iter
         (fun (word, kind) ->
            match kind with
            | 0 | 1 ->
              let k = List.length !store_tids in
              let tid =
                sim_store tr sim (word * 8)
                  (Printf.sprintf "%08d" (k * 7 mod 99999999))
              in
              store_tids := tid :: !store_tids
            | _ ->
              sim_flush tr sim (Pmem.line_of_addr (word * 8));
              sim_fence tr sim)
         ops;
       let m = Persist_model.create () in
       ignore (Persist_model.feed_range m tr ~from:0 ~upto:(Trace.length tr));
       let extras_of tid = Crash_sim.closure_tids (Crash_sim.closure sim tid) in
       let first_tid, last_tid =
         match List.rev !store_tids with
         | [] -> (0, 0)
         | first :: _ -> (first, List.hd !store_tids)
       in
       List.for_all
         (fun extras ->
            let cow_img = Crash_sim.materialize sim ~extras in
            let model_img = Persist_model.image m tr ~pool_size:4096 ~extras in
            Pmem.is_cow cow_img
            && Pmem.snapshot cow_img = Pmem.snapshot model_img)
         [ []; extras_of first_tid; extras_of last_tid ])

let suite =
  [ Alcotest.test_case "vec" `Quick test_vec;
    Alcotest.test_case "taint" `Quick test_taint;
    QCheck_alcotest.to_alcotest prop_taint_model;
    Alcotest.test_case "tv arithmetic taints" `Quick test_tv_arith;
    Alcotest.test_case "pmem bounds + snapshot" `Quick test_pmem;
    Alcotest.test_case "pmem cow view" `Quick test_pmem_cow;
    Alcotest.test_case "ctx records dd/cd" `Quick test_ctx_trace;
    Alcotest.test_case "ctx guards each pointer once per op" `Quick test_ctx_ptr_guards;
    Alcotest.test_case "guard scope exit restores the enclosing set" `Quick
      test_ctx_guard_scopes;
    Alcotest.test_case "level-hash guard sets stay small" `Quick test_ptr_guards_bounded;
    Alcotest.test_case "ctx splits at line boundary" `Quick test_ctx_line_split;
    Alcotest.test_case "ctx fuel" `Quick test_ctx_fuel;
    QCheck_alcotest.to_alcotest prop_trace_roundtrip;
    Alcotest.test_case "sim flush+fence guarantee" `Quick test_sim_guarantee;
    Alcotest.test_case "sim per-line closure" `Quick test_sim_closure;
    Alcotest.test_case "sim materialize latest-wins" `Quick test_sim_materialize;
    QCheck_alcotest.to_alcotest prop_prefix_closed;
    QCheck_alcotest.to_alcotest prop_cow_equals_flat;
    QCheck_alcotest.to_alcotest prop_pmem_multi_page;
    QCheck_alcotest.to_alcotest prop_materialize_model ]
