(* Tests for the PMDK-like substrate: pool lifecycle, the persistent
   allocator (bump + exact-fit free list), and undo-log transactions
   including rollback-on-recovery via simulated crash images. *)

open Nvm
module W = Witcher

let fresh_ctx ?(size = 512 * 1024) mode = Ctx.create ~mode (Pmem.create size)

let test_pool_lifecycle () =
  let ctx = fresh_ctx Record in
  Ctx.op_begin ctx ~index:0 ~desc:"create";
  let pool = Pmdk.Pool.create ctx ~root_size:32 in
  let root = Pmdk.Pool.root pool in
  Alcotest.(check bool) "root in heap" true (root >= Pmdk.Layout.heap_start);
  Alcotest.(check bool) "initialized" true (Pmdk.Pool.is_initialized ctx);
  (* reopen over the same memory *)
  let ctx2 = Ctx.create ~mode:Quiet (Ctx.pmem ctx) in
  let pool2 = Pmdk.Pool.open_ ctx2 in
  Alcotest.(check int) "same root" root (Pmdk.Pool.root pool2)

let test_pool_corrupt () =
  let ctx = fresh_ctx Quiet in
  match Pmdk.Pool.open_ ctx with
  | _ -> Alcotest.fail "expected corrupt pool"
  | exception Pmdk.Pool.Corrupt_pool _ -> ()

let test_alloc_alignment_and_reuse () =
  let ctx = fresh_ctx Quiet in
  let pool = Pmdk.Pool.create ctx ~root_size:16 in
  let a = Pmdk.Alloc.alloc pool 48 in
  let b = Pmdk.Alloc.alloc pool 48 in
  Alcotest.(check bool) "16-aligned" true (a mod 16 = 0 && b mod 16 = 0);
  Alcotest.(check bool) "disjoint" true (b >= a + 48);
  Pmdk.Alloc.free pool a;
  let c = Pmdk.Alloc.alloc pool 48 in
  Alcotest.(check int) "exact-fit reuse" a c;
  (* mismatched size does not reuse *)
  Pmdk.Alloc.free pool c;
  let d = Pmdk.Alloc.alloc pool 96 in
  Alcotest.(check bool) "no wrong-size reuse" true (d <> a)

let test_zalloc_zeroes () =
  let ctx = fresh_ctx Quiet in
  let pool = Pmdk.Pool.create ctx ~root_size:16 in
  let a = Pmdk.Alloc.alloc pool 32 in
  Ctx.write_bytes ctx ~sid:"junk" a (Tv.blob (String.make 32 'J'));
  Pmdk.Alloc.free pool a;
  let b = Pmdk.Alloc.zalloc pool 32 in
  Alcotest.(check int) "reused" a b;
  Alcotest.(check string) "zeroed" (String.make 32 '\000')
    (Pmem.read_bytes (Ctx.pmem ctx) b 32)

let test_tx_commit_and_abort () =
  let ctx = fresh_ctx Quiet in
  let pool = Pmdk.Pool.create ctx ~root_size:16 in
  let a = Pmdk.Alloc.zalloc pool 16 in
  Pmdk.Tx.run pool (fun tx ->
      Pmdk.Tx.add_range tx a 8;
      Ctx.write_u64 ctx ~sid:"w" a (Tv.const 7));
  Alcotest.(check int) "committed" 7 (Pmem.read_u64 (Ctx.pmem ctx) a);
  (match
     Pmdk.Tx.run pool (fun tx ->
         Pmdk.Tx.add_range tx a 8;
         Ctx.write_u64 ctx ~sid:"w" a (Tv.const 99);
         failwith "boom")
   with
   | () -> Alcotest.fail "expected exception"
   | exception Failure _ -> ());
  Alcotest.(check int) "aborted restores" 7 (Pmem.read_u64 (Ctx.pmem ctx) a)

(* Crash mid-transaction via the real pipeline: run a TX store, take the
   guaranteed-only image before the commit fence, recover, and check the
   undo restored the old value. *)
let test_tx_recovery_via_crash_image () =
  let ctx = fresh_ctx Record in
  Ctx.op_begin ctx ~index:0 ~desc:"create";
  let pool = Pmdk.Pool.create ctx ~root_size:16 in
  let a = Pmdk.Alloc.zalloc pool 16 in
  Ctx.write_u64 ctx ~sid:"init" a (Tv.const 1);
  Ctx.persist ctx ~sid:"init" a 8;
  Ctx.op_begin ctx ~index:1 ~desc:"tx";
  let tx = Pmdk.Tx.begin_ pool in
  Pmdk.Tx.add_range tx a 8;
  Ctx.write_u64 ctx ~sid:"dirty" a (Tv.const 2);
  (* crash here: replay the trace through the simulator and materialize
     the guaranteed-only state *)
  let trace = Ctx.trace ctx in
  let sim = Crash_sim.create ~trace ~pool_size:(Pmem.size (Ctx.pmem ctx)) in
  for i = 0 to Trace.length trace - 1 do Crash_sim.on_index sim i done;
  let img = Crash_sim.materialize sim ~extras:[] in
  let ctx2 = Ctx.create ~mode:Quiet img in
  let pool2 = Pmdk.Pool.open_ ctx2 in
  Pmdk.Tx.recover pool2;
  Alcotest.(check int) "undo restored" 1 (Pmem.read_u64 img a)

let test_tx_log_events () =
  let ctx = fresh_ctx Record in
  Ctx.op_begin ctx ~index:0 ~desc:"t";
  let pool = Pmdk.Pool.create ctx ~root_size:16 in
  let a = Pmdk.Alloc.zalloc pool 16 in
  Pmdk.Tx.run pool (fun tx ->
      Pmdk.Tx.add_range tx a 8;
      Pmdk.Tx.add_range tx a 8;
      Ctx.write_u64 ctx ~sid:"w" a (Tv.const 5));
  let perf = W.Perf.detect (Ctx.trace ctx) in
  Alcotest.(check int) "redundant log detected" 1 (W.Perf.n_bugs perf.p_el)

let suite =
  [ Alcotest.test_case "pool lifecycle" `Quick test_pool_lifecycle;
    Alcotest.test_case "pool corrupt detection" `Quick test_pool_corrupt;
    Alcotest.test_case "alloc alignment + exact-fit reuse" `Quick
      test_alloc_alignment_and_reuse;
    Alcotest.test_case "zalloc zeroes reused blocks" `Quick test_zalloc_zeroes;
    Alcotest.test_case "tx commit and abort" `Quick test_tx_commit_and_abort;
    Alcotest.test_case "tx recovery from crash image" `Quick
      test_tx_recovery_via_crash_image;
    Alcotest.test_case "tx redundant logging is P-EL" `Quick test_tx_log_events ]
