(* P-CLHT — the RECIPE conversion of the Cache-Line Hash Table (paper rows
   "P-CLHT", "P-CLHT-Aga", "P-CLHT-Aga-TX"; bugs 30-35). Buckets are one
   cache line: three key/value slots plus a chain pointer; the key is the
   slot's guardian (readers compare the key before reading the value).
   A table that grows too dense is rehashed into a table twice the size
   and published by a root-pointer swap.

   The paper tested three configurations, which map to [variant]:
   - [Base]   (bugs 30-31, C-O): the slot-claim paths — in-bucket and
     chain-append — omit the flush of the value / of the fresh bucket, so
     the guardian key can persist while its protected data does not.
   - [Aga]    (bugs 32-33, C-O): the claim paths are fixed, but the
     rehash loop writes the new table without any flush; only the root
     swap is persisted, so a crash right after the swap loses keys en
     masse.
   - [Aga_tx] (bugs 34-35 + 2x P-EL): updates run inside PMDK
     transactions which redundantly log the slot (extra logging), while
     the rehash keeps the Aga missing flushes.
   - [Fixed]: everything ordered; rehash is copy-on-write + atomic swap. *)

open Nvm
module Op = Witcher.Op
module Output = Witcher.Output

type variant = Base | Aga | Aga_tx | Fixed

let slots = 3
let slot_len = 16
let bucket_len = 8 + (slots * slot_len)  (* next ptr | slots *)
let initial_n = 16
let val_len = 8

let hash k = (k * 0x85EBCA77) land 0x3FFFFFFF

module Make (C : sig val variant : variant end) = struct
  let name =
    match C.variant with
    | Base -> "p-clht"
    | Aga -> "p-clht-aga"
    | Aga_tx -> "p-clht-aga-tx"
    | Fixed -> "p-clht-fixed"

  let pool_size = 8 * 1024 * 1024
  let supports_scan = false

  let variant = C.variant

  type t = {
    ctx : Ctx.t;
    pool : Pmdk.Pool.t;
    mutable items : int;  (* volatile item count driving rehash *)
  }

  (* table struct: nbuckets | buckets base *)
  let table_n t tbl = Tv.value (Ctx.read_u64 t.ctx ~sid:"clht:table.n" tbl)
  let table_buckets t tbl =
    Tv.value (Ctx.read_ptr t.ctx ~sid:"clht:table.buckets" (tbl + 8))

  let root_table t =
    let r = Pmdk.Pool.root t.pool in
    Tv.value (Ctx.read_ptr t.ctx ~sid:"clht:root.table" r)

  let bucket_addr t tbl k =
    let n = table_n t tbl in
    table_buckets t tbl + (hash k mod n * bucket_len)

  let next_of t b = Tv.value (Ctx.read_ptr t.ctx ~sid:"clht:bucket.next" b)
  let slot_addr b i = b + 8 + (i * slot_len)

  let alloc_table t ~n =
    let tbl = Pmdk.Alloc.zalloc t.pool 16 in
    let buckets = Pmdk.Alloc.zalloc t.pool (n * bucket_len) in
    Ctx.write_u64 t.ctx ~sid:"clht:mktable.n" tbl (Tv.const n);
    Ctx.write_u64 t.ctx ~sid:"clht:mktable.buckets" (tbl + 8) (Tv.const buckets);
    Ctx.persist t.ctx ~sid:"clht:mktable.persist" tbl 16;
    tbl

  let create ctx =
    let pool = Pmdk.Pool.create ctx ~root_size:16 in
    let t = { ctx; pool; items = 0 } in
    let tbl = alloc_table t ~n:initial_n in
    let r = Pmdk.Pool.root pool in
    Ctx.write_u64 ctx ~sid:"clht:create.root" r (Tv.const tbl);
    Ctx.persist ctx ~sid:"clht:create.root_persist" r 8;
    t

  let open_ ctx =
    let pool = Pmdk.Pool.open_ ctx in
    let t = { ctx; pool; items = 0 } in
    if variant = Aga_tx || variant = Fixed then Pmdk.Tx.recover pool;
    let r = Pmdk.Pool.root pool in
    if not (Tv.to_bool (Ctx.read_u64 ctx ~sid:"clht:open.root" r)) then begin
      let tbl = alloc_table t ~n:initial_n in
      Ctx.write_u64 ctx ~sid:"clht:recover.root" r (Tv.const tbl);
      Ctx.persist ctx ~sid:"clht:recover.root_persist" r 8
    end;
    t

  (* Find the slot holding [k]; guarded read through the key. *)
  let find_slot t k ~found =
    let tbl = root_table t in
    let rec chain b =
      if b = 0 then None
      else begin
        let rec probe i =
          if i >= slots then chain (next_of t b)
          else begin
            let a = slot_addr b i in
            let key = Ctx.read_u64 t.ctx ~sid:"clht:find.key" a in
            match
              Ctx.if_ t.ctx (Tv.eq key (Tv.const k))
                ~then_:(fun () -> Some (found a))
                ~else_:(fun () -> None)
            with
            | Some r -> Some r
            | None -> probe (i + 1)
          end
        in
        probe 0
      end
    in
    chain (bucket_addr t tbl k)

  let read_value t a =
    Value.strip
      (Tv.blob_value (Ctx.read_bytes t.ctx ~sid:"clht:read.value" (a + 8) 8))

  (* Claim slot [a]: value first, then the guardian key. Bug 30's shape:
     the value flush is missing, only the key is persisted. *)
  let claim_slot t a k v =
    Ctx.write_bytes t.ctx ~sid:"clht:insert.value" (a + 8)
      (Tv.blob (Value.pad val_len v));
    if variant <> Base then
      Ctx.persist t.ctx ~sid:"clht:insert.value_persist" (a + 8) 8;
    Ctx.write_u64 t.ctx ~sid:"clht:insert.key" a (Tv.const k);
    Ctx.persist t.ctx ~sid:"clht:insert.key_persist" a 8

  (* Append a fresh chain bucket holding (k, v) behind [b]. Bug 31's
     shape: the bucket body is never flushed before it is linked. *)
  let append_bucket t b k v =
    let nb = Pmdk.Alloc.zalloc t.pool bucket_len in
    Ctx.write_bytes t.ctx ~sid:"clht:append.value" (slot_addr nb 0 + 8)
      (Tv.blob (Value.pad val_len v));
    Ctx.write_u64 t.ctx ~sid:"clht:append.key" (slot_addr nb 0) (Tv.const k);
    if variant <> Base then
      Ctx.persist t.ctx ~sid:"clht:append.persist" nb bucket_len;
    Ctx.write_u64 t.ctx ~sid:"clht:append.link" b (Tv.const nb);
    Ctx.persist t.ctx ~sid:"clht:append.link_persist" b 8

  let insert_into t k v =
    let tbl = root_table t in
    let rec chain b =
      let rec probe i =
        if i >= slots then begin
          let nxt = next_of t b in
          if nxt = 0 then append_bucket t b k v else chain nxt
        end
        else begin
          let a = slot_addr b i in
          let key = Ctx.read_u64 t.ctx ~sid:"clht:insert.probe" a in
          if not (Tv.to_bool key) then claim_slot t a k v else probe (i + 1)
        end
      in
      probe 0
    in
    chain (bucket_addr t tbl k)

  (* Rehash into a table twice the size. Aga's shape (bugs 32-33): the new
     buckets are written with no flush at all; only the swap persists. *)
  let rehash t =
    let tbl = root_table t in
    let n = table_n t tbl in
    let ntbl = alloc_table t ~n:(2 * n) in
    let buckets = table_buckets t tbl in
    let copy_value = variant = Base || variant = Fixed in
    let nbuckets = table_buckets t ntbl in
    let place k v =
      let nn = 2 * n in
      let b0 = nbuckets + (hash k mod nn * bucket_len) in
      let rec chain b =
        let rec probe i =
          if i >= slots then begin
            let nxt = next_of t b in
            if nxt = 0 then begin
              let nb = Pmdk.Alloc.zalloc t.pool bucket_len in
              Ctx.write_bytes t.ctx ~sid:"clht:rehash.chain_value"
                (slot_addr nb 0 + 8) v;
              Ctx.write_u64 t.ctx ~sid:"clht:rehash.chain_key" (slot_addr nb 0)
                (Tv.const k);
              if copy_value then
                Ctx.persist t.ctx ~sid:"clht:rehash.chain_persist" nb bucket_len;
              Ctx.write_u64 t.ctx ~sid:"clht:rehash.chain_link" b (Tv.const nb);
              if copy_value then
                Ctx.persist t.ctx ~sid:"clht:rehash.chain_link_persist" b 8
            end
            else chain nxt
          end
          else begin
            let a = slot_addr b i in
            let key = Ctx.read_u64 t.ctx ~sid:"clht:rehash.probe" a in
            if not (Tv.to_bool key) then begin
              Ctx.write_bytes t.ctx ~sid:"clht:rehash.value" (a + 8) v;
              Ctx.write_u64 t.ctx ~sid:"clht:rehash.key" a (Tv.const k);
              if copy_value then
                (* BUG when absent (bugs 32-35, C-O): no flush of the new
                   slot before the table swap becomes durable. *)
                Ctx.persist t.ctx ~sid:"clht:rehash.slot_persist" a slot_len
            end
            else probe (i + 1)
          end
        in
        probe 0
      in
      chain b0
    in
    for i = 0 to n - 1 do
      let rec walk b =
        if b <> 0 then begin
          for j = 0 to slots - 1 do
            let a = slot_addr b j in
            let key = Ctx.read_u64 t.ctx ~sid:"clht:rehash.src_key" a in
            Ctx.when_ t.ctx key (fun () ->
                let v = Ctx.read_bytes t.ctx ~sid:"clht:rehash.src_val" (a + 8) 8 in
                place (Tv.value key) v)
          done;
          walk (next_of t b)
        end
      in
      walk (buckets + (i * bucket_len))
    done;
    let r = Pmdk.Pool.root t.pool in
    Ctx.write_u64 t.ctx ~sid:"clht:rehash.swap" r (Tv.const ntbl);
    Ctx.persist t.ctx ~sid:"clht:rehash.swap_persist" r 8

  let maybe_rehash t =
    let tbl = root_table t in
    let n = table_n t tbl in
    if t.items > 2 * slots * n / 3 then rehash t

  (* The Aga-TX variant wraps the mutation in a transaction and logs the
     bucket — then logs the slot again, PMDK-style extra logging (P-EL). *)
  let with_tx t b f =
    if variant = Aga_tx then
      Pmdk.Tx.run t.pool (fun tx ->
          Pmdk.Tx.add_range tx b bucket_len;
          (* BUG (P-EL): the slot range is inside the bucket just logged. *)
          Pmdk.Tx.add_range tx (slot_addr b 0) slot_len;
          f ())
    else f ()

  let insert t k v =
    match
      find_slot t k ~found:(fun a ->
          Ctx.write_bytes t.ctx ~sid:"clht:insert.upsert" (a + 8)
            (Tv.blob (Value.pad val_len v));
          Ctx.persist t.ctx ~sid:"clht:insert.upsert_persist" (a + 8) 8)
    with
    | Some () -> Output.Ok
    | None ->
    maybe_rehash t;
    let tbl = root_table t in
    let b = bucket_addr t tbl k in
    with_tx t b (fun () -> insert_into t k v);
    t.items <- t.items + 1;
    Output.Ok

  let update t k v =
    match
      find_slot t k ~found:(fun a ->
          let doit () =
            Ctx.write_bytes t.ctx ~sid:"clht:update.value" (a + 8)
              (Tv.blob (Value.pad val_len v));
            Ctx.persist t.ctx ~sid:"clht:update.persist" (a + 8) 8
          in
          if variant = Aga_tx then
            Pmdk.Tx.run t.pool (fun tx ->
                Pmdk.Tx.add_range tx a slot_len;
                (* BUG (P-EL): the value range is inside the slot. *)
                Pmdk.Tx.add_range tx (a + 8) 8;
                doit ())
          else doit ())
    with
    | Some () -> Output.Ok
    | None -> Output.Not_found

  let delete t k =
    match
      find_slot t k ~found:(fun a ->
          Ctx.write_u64 t.ctx ~sid:"clht:delete.key" a Tv.zero;
          Ctx.persist t.ctx ~sid:"clht:delete.persist" a 8)
    with
    | Some () -> t.items <- t.items - 1; Output.Ok
    | None -> Output.Not_found

  let query t k =
    match find_slot t k ~found:(fun a -> read_value t a) with
    | Some v -> Output.Found v
    | None -> Output.Not_found

  let exec t op =
    match op with
    | Op.Insert (k, v) -> insert t k v
    | Op.Update (k, v) -> update t k v
    | Op.Delete k -> delete t k
    | Op.Query k -> query t k
    | Op.Scan _ -> Output.Fail "scan-unsupported"
end

let make variant : Witcher.Store_intf.instance =
  let module M = Make (struct let variant = variant end) in
  (module M)

let base () = make Base
let aga () = make Aga
let aga_tx () = make Aga_tx
let fixed () = make Fixed
