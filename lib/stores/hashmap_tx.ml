(* PMDK example Hashmap-TX (paper row "Hashmap-TX", bug 44). A chained
   hash table whose mutations run inside undo-log transactions.

   Entry: key(8) | value(8) | next(8). The allocator's free list reuses
   the first word of a freed block, clobbering the key — harmless once
   the entry is truly unreachable.

   Seeded defect ([use_after_free], bug 44, C-O "use-after-free", fix
   strategy "copy before free"): delete frees the entry *before* reading
   its next pointer to unlink it. Sequentially this works (the word is
   still intact), but the free-list push persists immediately, so a crash
   between it and the unlink leaves the entry simultaneously linked in
   the chain and available for reallocation; the next insert recycles it
   and the chain is corrupted — lost keys, unexpected op failures. *)

open Nvm
module Op = Witcher.Op
module Output = Witcher.Output

type cfg = { use_after_free : bool }

let buggy_cfg = { use_after_free = true }
let fixed_cfg = { use_after_free = false }

let n_buckets = 64
let val_len = 8

let e_key = 0
let e_val = 8
let e_next = 16
let entry_len = 24

let hash k = (k * 0x9E3779B1) land 0x3FFFFFFF

module Make (C : sig val cfg : cfg end) = struct
  let name = "hashmap-tx"
  let pool_size = 4 * 1024 * 1024
  let supports_scan = false

  let cfg = C.cfg

  type t = {
    ctx : Ctx.t;
    pool : Pmdk.Pool.t;
  }

  let buckets t =
    Tv.value (Ctx.read_ptr t.ctx ~sid:"hm:root.buckets" (Pmdk.Pool.root t.pool))

  let bucket_addr t k = buckets t + (hash k mod n_buckets * 8)

  let create_table ctx pool =
    let b = Pmdk.Alloc.zalloc pool (n_buckets * 8) in
    let r = Pmdk.Pool.root pool in
    Ctx.write_u64 ctx ~sid:"hm:create.buckets" r (Tv.const b);
    Ctx.persist ctx ~sid:"hm:create.persist" r 8

  let create ctx =
    let pool = Pmdk.Pool.create ctx ~root_size:16 in
    create_table ctx pool;
    { ctx; pool }

  let open_ ctx =
    let pool = Pmdk.Pool.open_ ctx in
    Pmdk.Tx.recover pool;
    if not (Tv.to_bool (Ctx.read_u64 ctx ~sid:"hm:open.buckets" (Pmdk.Pool.root pool)))
    then create_table ctx pool;
    { ctx; pool }

  (* Find entry for [k]: returns (slot pointing at entry, entry). *)
  let find t k =
    let rec go slot =
      let e = Tv.value (Ctx.read_ptr t.ctx ~sid:"hm:find.entry" slot) in
      if e = 0 then None
      else begin
        let key = Ctx.read_u64 t.ctx ~sid:"hm:find.key" (e + e_key) in
        match
          Ctx.if_ t.ctx (Tv.eq key (Tv.const k))
            ~then_:(fun () -> Some (slot, e))
            ~else_:(fun () -> None)
        with
        | Some r -> Some r
        | None -> go (e + e_next)
      end
    in
    go (bucket_addr t k)

  let insert t k v =
    match find t k with
    | Some (_, e) ->
      Pmdk.Tx.run t.pool (fun tx ->
          Pmdk.Tx.add_range tx (e + e_val) 8;
          Ctx.write_bytes t.ctx ~sid:"hm:insert.upsert" (e + e_val)
            (Tv.blob (Value.pad val_len v)));
      Output.Ok
    | None ->
      Pmdk.Tx.run t.pool (fun tx ->
          let slot = bucket_addr t k in
          let head = Ctx.read_u64 t.ctx ~sid:"hm:insert.head" slot in
          let e = Pmdk.Alloc.zalloc t.pool entry_len in
          Ctx.write_u64 t.ctx ~sid:"hm:insert.key" (e + e_key) (Tv.const k);
          Ctx.write_bytes t.ctx ~sid:"hm:insert.value" (e + e_val)
            (Tv.blob (Value.pad val_len v));
          Ctx.write_u64 t.ctx ~sid:"hm:insert.next" (e + e_next) head;
          Ctx.persist t.ctx ~sid:"hm:insert.persist" e entry_len;
          Pmdk.Tx.add_range tx slot 8;
          Ctx.write_u64 t.ctx ~sid:"hm:insert.link" slot (Tv.const e));
      Output.Ok

  let update t k v =
    match find t k with
    | Some (_, e) ->
      Pmdk.Tx.run t.pool (fun tx ->
          Pmdk.Tx.add_range tx (e + e_val) 8;
          Ctx.write_bytes t.ctx ~sid:"hm:update.value" (e + e_val)
            (Tv.blob (Value.pad val_len v)));
      Output.Ok
    | None -> Output.Not_found

  let delete t k =
    match find t k with
    | Some (slot, e) ->
      Pmdk.Tx.run t.pool (fun tx ->
          if cfg.use_after_free then begin
            (* BUG (bug 44, C-O): free first, read the freed entry's next
               pointer after. The free-list push is durable immediately;
               the unlink below is not — a crash in between leaves [e]
               both linked and reusable. *)
            Pmdk.Alloc.free t.pool e;
            let nxt = Ctx.read_u64 t.ctx ~sid:"hm:delete.next_uaf" (e + e_next) in
            Pmdk.Tx.add_range tx slot 8;
            Ctx.write_u64 t.ctx ~sid:"hm:delete.unlink" slot nxt;
            Ctx.persist t.ctx ~sid:"hm:delete.unlink_persist" slot 8
          end
          else begin
            (* fix: copy before free, and defer the free past commit *)
            let nxt = Ctx.read_u64 t.ctx ~sid:"hm:delete.next" (e + e_next) in
            Pmdk.Tx.add_range tx slot 8;
            Ctx.write_u64 t.ctx ~sid:"hm:delete.unlink" slot nxt;
            Ctx.persist t.ctx ~sid:"hm:delete.unlink_persist" slot 8
          end);
      (* PMDK's tx_free takes effect at commit; freeing before commit
         would let a rollback resurrect a reusable entry. *)
      if not cfg.use_after_free then Pmdk.Alloc.free t.pool e;
      Output.Ok
    | None -> Output.Not_found

  let query t k =
    match find t k with
    | Some (_, e) ->
      Output.Found
        (Value.strip
           (Tv.blob_value (Ctx.read_bytes t.ctx ~sid:"hm:read.value" (e + e_val) 8)))
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
