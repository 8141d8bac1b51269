(* PMDK example Hashmap-atomic (paper row "Hashmap-atomic", bugs 45-46).
   A chained hash table built on low-level atomic stores instead of
   transactions. Entry references are PMDK-style two-word OIDs
   (pool tag | offset): a reference is live only when the tag matches.

   Entry: key(8) | value(8) | next tag(8) | next off(8).
   Bucket heads are the same two-word pairs.

   Seeded defects (both C-A):
   - [create_atomic] (bug 45, "atomicity when creating hashmap"): table
     creation stores the bucket-array pointer and the bucket count with
     no ordering between them; a crash can persist the count while the
     pointer stays null, and every later operation indexes off address
     zero — an inconsistent structure from the first fence on.
   - [oid_atomic]    (bug 46, "atomicity when assigning pool id and
     offset"): linking an entry writes the OID's two words as two stores
     behind one fence; crashing in between publishes a tag whose offset
     is stale — the reader dereferences the wrong entry.

   The fixed variants store the pair with a single 16-byte (one-store)
   write, the "merge to word size" strategy of §7.2, and order creation
   stores pointer-first. *)

open Nvm
module Op = Witcher.Op
module Output = Witcher.Output

type cfg = {
  create_atomic : bool;
  oid_atomic : bool;
}

let buggy_cfg = { create_atomic = true; oid_atomic = true }
let fixed_cfg = { create_atomic = false; oid_atomic = false }

let n_buckets = 64
let val_len = 8
let oid_tag = 0x1D

let e_key = 0
let e_val = 8
let e_next = 16  (* tag | off *)
let entry_len = 32

let hash k = (k * 0x85EBCA77) land 0x3FFFFFFF

module Make (C : sig val cfg : cfg end) = struct
  let name = "hashmap-atomic"
  let pool_size = 4 * 1024 * 1024
  let supports_scan = false

  let cfg = C.cfg

  type t = {
    ctx : Ctx.t;
    pool : Pmdk.Pool.t;
  }

  (* root object: buckets ptr(8) | nbuckets(8) *)

  let create_table t =
    let r = Pmdk.Pool.root t.pool in
    let b = Pmdk.Alloc.zalloc t.pool (n_buckets * 16) in
    if cfg.create_atomic then begin
      (* BUG (bug 45, C-A): pointer and count persist in one breath. *)
      Ctx.write_u64 t.ctx ~sid:"ha:create.buckets" r (Tv.const b);
      Ctx.write_u64 t.ctx ~sid:"ha:create.nbuckets" (r + 8)
        (Tv.const n_buckets);
      Ctx.flush_range t.ctx ~sid:"ha:create.flush" r 16;
      Ctx.fence t.ctx ~sid:"ha:create.fence"
    end
    else begin
      Ctx.write_u64 t.ctx ~sid:"ha:create.buckets" r (Tv.const b);
      Ctx.persist t.ctx ~sid:"ha:create.buckets_persist" r 8;
      Ctx.write_u64 t.ctx ~sid:"ha:create.nbuckets" (r + 8)
        (Tv.const n_buckets);
      Ctx.persist t.ctx ~sid:"ha:create.nbuckets_persist" (r + 8) 8
    end

  let create ctx =
    let pool = Pmdk.Pool.create ctx ~root_size:16 in
    let t = { ctx; pool } in
    create_table t;
    t

  let open_ ctx =
    let pool = Pmdk.Pool.open_ ctx in
    let t = { ctx; pool } in
    let r = Pmdk.Pool.root pool in
    if not cfg.create_atomic then begin
      (* fixed recovery: pointer-first ordering means a null pointer is
         the only possible partial state — re-create *)
      if not (Tv.to_bool (Ctx.read_u64 ctx ~sid:"ha:open.buckets" r)) then
        create_table t
    end;
    t

  (* Read a two-word OID; valid only when the tag matches. The tag read
     guards the offset read (guarded protection on the pair). *)
  let read_oid t ~sid addr =
    let tag = Ctx.read_u64 t.ctx ~sid:(sid ^ ".tag") addr in
    Ctx.if_ t.ctx (Tv.eq tag (Tv.const oid_tag))
      ~then_:(fun () ->
          let off = Ctx.read_ptr t.ctx ~sid:(sid ^ ".off") (addr + 8) in
          Tv.value off)
      ~else_:(fun () -> 0)

  (* Store a two-word OID. Fixed: one 16-byte store. Buggy (bug 46): two
     stores, offset last, one trailing fence. *)
  let write_oid t ~sid addr target =
    if target = 0 then begin
      Ctx.write_u64 t.ctx ~sid:(sid ^ ".clear_tag") addr Tv.zero;
      Ctx.persist t.ctx ~sid:(sid ^ ".clear_persist") addr 8
    end
    else if cfg.oid_atomic then begin
      (* BUG (bug 46, C-A): the OID is assigned in phases — invalidate,
         set the offset, revalidate — behind a single fence. A crash can
         persist the invalidated tag alone, dropping the whole chain, or
         the new tag without the offset. *)
      Ctx.write_u64 t.ctx ~sid:(sid ^ ".clear") addr Tv.zero;
      Ctx.write_u64 t.ctx ~sid:(sid ^ ".off") (addr + 8) (Tv.const target);
      Ctx.write_u64 t.ctx ~sid:(sid ^ ".tag") addr (Tv.const oid_tag);
      Ctx.flush_range t.ctx ~sid:(sid ^ ".flush") addr 16;
      Ctx.fence t.ctx ~sid:(sid ^ ".fence")
    end
    else begin
      let b = Bytes.create 16 in
      Bytes.set_int64_le b 0 (Int64.of_int oid_tag);
      Bytes.set_int64_le b 8 (Int64.of_int target);
      Ctx.write_bytes t.ctx ~sid:(sid ^ ".pair") addr
        (Tv.blob (Bytes.to_string b));
      Ctx.persist t.ctx ~sid:(sid ^ ".pair_persist") addr 16
    end

  let buckets t =
    let r = Pmdk.Pool.root t.pool in
    let n = Ctx.read_u64 t.ctx ~sid:"ha:root.nbuckets" (r + 8) in
    let b = Ctx.read_ptr t.ctx ~sid:"ha:root.buckets" r in
    if not (Tv.to_bool n) then None else Some (Tv.value b)

  let bucket_addr t k =
    match buckets t with
    | None -> None
    | Some b -> Some (b + (hash k mod n_buckets * 16))

  let find t k =
    match bucket_addr t k with
    | None -> None
    | Some slot ->
      let rec go slot =
        let e = read_oid t ~sid:"ha:find.oid" slot in
        if e = 0 then None
        else begin
          let key = Ctx.read_u64 t.ctx ~sid:"ha:find.key" (e + e_key) in
          match
            Ctx.if_ t.ctx (Tv.eq key (Tv.const k))
              ~then_:(fun () -> Some (slot, e))
              ~else_:(fun () -> None)
          with
          | Some r -> Some r
          | None -> go (e + e_next)
        end
      in
      go slot

  let insert t k v =
    match find t k with
    | Some (_, e) ->
      Ctx.write_bytes t.ctx ~sid:"ha:insert.upsert" (e + e_val)
        (Tv.blob (Value.pad val_len v));
      Ctx.persist t.ctx ~sid:"ha:insert.upsert_persist" (e + e_val) 8;
      Output.Ok
    | None ->
      (match bucket_addr t k with
       | None -> Output.Fail "no-table"
       | Some slot ->
         let head = read_oid t ~sid:"ha:insert.head" slot in
         let e = Pmdk.Alloc.zalloc t.pool entry_len in
         Ctx.write_u64 t.ctx ~sid:"ha:insert.key" (e + e_key) (Tv.const k);
         Ctx.write_bytes t.ctx ~sid:"ha:insert.value" (e + e_val)
           (Tv.blob (Value.pad val_len v));
         if head <> 0 then begin
           let b = Bytes.create 16 in
           Bytes.set_int64_le b 0 (Int64.of_int oid_tag);
           Bytes.set_int64_le b 8 (Int64.of_int head);
           Ctx.write_bytes t.ctx ~sid:"ha:insert.next" (e + e_next)
             (Tv.blob (Bytes.to_string b))
         end;
         Ctx.persist t.ctx ~sid:"ha:insert.persist" e entry_len;
         write_oid t ~sid:"ha:insert.link" slot e;
         Output.Ok)

  let update t k v =
    match find t k with
    | Some (_, e) ->
      Ctx.write_bytes t.ctx ~sid:"ha:update.value" (e + e_val)
        (Tv.blob (Value.pad val_len v));
      Ctx.persist t.ctx ~sid:"ha:update.persist" (e + e_val) 8;
      Output.Ok
    | None -> Output.Not_found

  let delete t k =
    match find t k with
    | Some (slot, e) ->
      let nxt = read_oid t ~sid:"ha:delete.next" (e + e_next) in
      write_oid t ~sid:"ha:delete.unlink" slot nxt;
      Output.Ok
    | None -> Output.Not_found

  let query t k =
    match find t k with
    | Some (_, e) ->
      Output.Found
        (Value.strip
           (Tv.blob_value (Ctx.read_bytes t.ctx ~sid:"ha:read.value" (e + e_val) 8)))
    | None -> Output.Not_found

  let exec t op =
    match op with
    | Op.Insert (k, v) -> insert t k v
    | Op.Update (k, v) -> update t k v
    | Op.Delete k -> delete t k
    | Op.Query k -> query t k
    | Op.Scan _ -> Output.Fail "scan-unsupported"
end

let make ?(cfg = buggy_cfg) () : Witcher.Store_intf.instance =
  let module M = Make (struct let cfg = cfg end) in
  (module M)

let buggy () = make ~cfg:buggy_cfg ()
let fixed () = make ~cfg:fixed_cfg ()
