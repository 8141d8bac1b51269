(* pmem-Redis (paper row "Redis"): a transactional dict port. The paper
   found no correctness or performance bugs in it — but §7.6 discusses a
   *benign* pattern that made the annotation-based tools report a false
   positive: after allocating the (already zeroed) root object, Redis
   zeroes it again *outside* any transaction. The unprotected store
   violates a likely-atomicity condition, Witcher tests it, and output
   equivalence shows no divergence (old value and new value are both
   zero), pruning the false positive.

   We reproduce the dict (chained, fully logged mutations) and the benign
   unprotected zeroing store at creation, labelled "redis:init.zero_root"
   so the §7.6 comparison bench can point at it. *)

open Nvm
module Op = Witcher.Op
module Output = Witcher.Output

let n_buckets = 128
let val_len = 8

let e_key = 0
let e_val = 8
let e_next = 16
let entry_len = 24

let hash k = (k * 0x85EBCA77) land 0x3FFFFFFF

module M = struct
  let name = "redis"
  let pool_size = 4 * 1024 * 1024
  let supports_scan = false

  type t = {
    ctx : Ctx.t;
    pool : Pmdk.Pool.t;
  }

  let create_dict ctx pool =
    let b = Pmdk.Alloc.zalloc pool (n_buckets * 8) in
    let r = Pmdk.Pool.root pool in
    Ctx.write_u64 ctx ~sid:"redis:create.dict" r (Tv.const b);
    Ctx.persist ctx ~sid:"redis:create.dict_persist" r 8

  let create ctx =
    let pool = Pmdk.Pool.create ctx ~root_size:16 in
    (* Benign §7.6 pattern: re-zero the freshly zeroed root object,
       outside any transaction. Old and new values are both zero, so no
       crash state can diverge — but an annotation-based checker flags
       this unprotected NVM update as a bug. *)
    let r = Pmdk.Pool.root pool in
    Ctx.write_u64 ctx ~sid:"redis:init.zero_root" r Tv.zero;
    Ctx.write_u64 ctx ~sid:"redis:init.zero_root2" (r + 8) Tv.zero;
    Ctx.persist ctx ~sid:"redis:init.zero_persist" r 16;
    create_dict ctx pool;
    { ctx; pool }

  let open_ ctx =
    let pool = Pmdk.Pool.open_ ctx in
    Pmdk.Tx.recover pool;
    if not (Tv.to_bool (Ctx.read_u64 ctx ~sid:"redis:open.dict" (Pmdk.Pool.root pool)))
    then create_dict ctx pool;
    { ctx; pool }

  let bucket_addr t k =
    let b =
      Tv.value (Ctx.read_ptr t.ctx ~sid:"redis:root.dict" (Pmdk.Pool.root t.pool))
    in
    b + (hash k mod n_buckets * 8)

  let find t k =
    let rec go slot =
      let e = Tv.value (Ctx.read_ptr t.ctx ~sid:"redis:find.entry" slot) in
      if e = 0 then None
      else begin
        let key = Ctx.read_u64 t.ctx ~sid:"redis:find.key" (e + e_key) in
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
          Ctx.write_bytes t.ctx ~sid:"redis:insert.upsert" (e + e_val)
            (Tv.blob (Value.pad val_len v)));
      Output.Ok
    | None ->
      Pmdk.Tx.run t.pool (fun tx ->
          let slot = bucket_addr t k in
          let head = Ctx.read_u64 t.ctx ~sid:"redis:insert.head" slot in
          let e = Pmdk.Alloc.zalloc t.pool entry_len in
          Ctx.write_u64 t.ctx ~sid:"redis:insert.key" (e + e_key) (Tv.const k);
          Ctx.write_bytes t.ctx ~sid:"redis:insert.value" (e + e_val)
            (Tv.blob (Value.pad val_len v));
          Ctx.write_u64 t.ctx ~sid:"redis:insert.next" (e + e_next) head;
          Ctx.persist t.ctx ~sid:"redis:insert.persist" e entry_len;
          Pmdk.Tx.add_range tx slot 8;
          Ctx.write_u64 t.ctx ~sid:"redis:insert.link" slot (Tv.const e));
      Output.Ok

  let update t k v =
    match find t k with
    | Some (_, e) ->
      Pmdk.Tx.run t.pool (fun tx ->
          Pmdk.Tx.add_range tx (e + e_val) 8;
          Ctx.write_bytes t.ctx ~sid:"redis:update.value" (e + e_val)
            (Tv.blob (Value.pad val_len v)));
      Output.Ok
    | None -> Output.Not_found

  let delete t k =
    match find t k with
    | Some (slot, e) ->
      Pmdk.Tx.run t.pool (fun tx ->
          let nxt = Ctx.read_u64 t.ctx ~sid:"redis:delete.next" (e + e_next) in
          Pmdk.Tx.add_range tx slot 8;
          Ctx.write_u64 t.ctx ~sid:"redis:delete.unlink" slot nxt);
      (* free only after the commit is durable (tx_free semantics) *)
      Pmdk.Alloc.free t.pool e;
      Output.Ok
    | None -> Output.Not_found

  let query t k =
    match find t k with
    | Some (_, e) ->
      Output.Found
        (Value.strip
           (Tv.blob_value
              (Ctx.read_bytes t.ctx ~sid:"redis:read.value" (e + e_val) 8)))
    | None -> Output.Not_found

  let exec t op =
    match op with
    | Op.Insert (k, v) -> insert t k v
    | Op.Update (k, v) -> update t k v
    | Op.Delete k -> delete t k
    | Op.Query k -> query t k
    | Op.Scan _ -> Output.Fail "scan-unsupported"
end

let make () : Witcher.Store_intf.instance = (module M)
let buggy = make
let fixed = make
