(* Level Hashing (Zuo et al., OSDI '18; paper rows "Level Hash", bugs
   7-23). A two-level hash table: a top level of [n] buckets and a bottom
   level of [n/2] buckets; every key hashes to two top buckets and their
   two bottom buckets. Each bucket holds [assoc] slots, each guarded by a
   one-byte token (0 = empty): the "guarded protection" pattern of §3.1.1.

   Seeded defects (all flag-controlled; [buggy] turns them all on):

   - [insert_order]   (Figure 1(b), bugs 7-8, C-O): log-free insert writes
     key/value and then the token *before* any flush, so the token can
     persist while the slot does not — a query after the crash returns a
     garbage (stale) value.
   - [update_atomic]  (Figure 1(c), bugs 9, 19-23, C-A): log-free update
     writes the new slot and flips the old and new tokens assuming the two
     one-byte stores persist atomically; crashing between them loses or
     duplicates the key.
   - [movement_order] (bugs 14-15, C-O/C-A): when all candidate buckets
     are full, one resident item is moved to its alternate bucket; the old
     token is cleared before the moved copy is durable.
   - [rehash_clear]   (bugs 17-18, C-A): in-place rehashing clears source
     tokens while the re-inserted copies are still volatile; a crash
     before the table swap loses keys from the still-live old table.
   - [extra_flush]    (P-EFL): insert re-flushes the token line.
   - Item counters live in NVM but are never flushed (P-U), as in the
     paper's 11 unpersisted bugs for this store.

   The fixed variant persists key/value before the token (write ordering),
   updates in place (one sub-line store is atomic), rehashes out of place
   and publishes the new table with a single persisted root-pointer swap. *)

open Nvm
module Op = Witcher.Op
module Output = Witcher.Output

type cfg = {
  insert_order : bool;
  update_atomic : bool;
  movement_order : bool;
  rehash_clear : bool;
  extra_flush : bool;
}

let buggy_cfg =
  { insert_order = true; update_atomic = true; movement_order = true;
    rehash_clear = true; extra_flush = true }

let fixed_cfg =
  { insert_order = false; update_atomic = false; movement_order = false;
    rehash_clear = false; extra_flush = false }

let assoc = 4
let key_len = 8
let val_len = 16
let slot_len = key_len + val_len
let bucket_len = 8 + (assoc * slot_len)  (* 8 token bytes (4 used) + slots *)
let initial_n = 8

(* table struct *)
let t_n = 0
let t_top = 8
let t_bottom = 16
let t_items = 24
let table_len = 32

let hash1 k = (k * 0x9E3779B1) land 0x3FFFFFFF
let hash2 k = ((k * 0x85EBCA77) lxor 0x165667B1) land 0x3FFFFFFF

module Make (C : sig val cfg : cfg end) = struct
  let name = "level-hash"
  let pool_size = 4 * 1024 * 1024
  let supports_scan = false

  type t = {
    ctx : Ctx.t;
    pool : Pmdk.Pool.t;
  }

  let cfg = C.cfg

  (* --- layout helpers --- *)

  let token_addr bucket j = bucket + j
  let slot_addr bucket j = bucket + 8 + (j * slot_len)
  let key_addr bucket j = slot_addr bucket j
  let val_addr bucket j = slot_addr bucket j + key_len

  let root_table t =
    let root = Pmdk.Pool.root t.pool in
    Tv.value (Ctx.read_ptr t.ctx ~sid:"lh:root.table" root)

  let table_n t table = Tv.value (Ctx.read_u64 t.ctx ~sid:"lh:table.n" (table + t_n))
  let table_top t table = Tv.value (Ctx.read_ptr t.ctx ~sid:"lh:table.top" (table + t_top))
  let table_bottom t table =
    Tv.value (Ctx.read_ptr t.ctx ~sid:"lh:table.bottom" (table + t_bottom))

  (* Candidate buckets for a key: two top, two bottom. *)
  let candidates t table k =
    let n = table_n t table in
    let top = table_top t table and bottom = table_bottom t table in
    let nb = n / 2 in
    let b1 = top + (hash1 k mod n * bucket_len) in
    let b2 = top + (hash2 k mod n * bucket_len) in
    let b3 = bottom + (hash1 k mod nb * bucket_len) in
    let b4 = bottom + (hash2 k mod nb * bucket_len) in
    [ b1; b2; b3; b4 ]

  let alloc_table t ~n =
    let table = Pmdk.Alloc.zalloc t.pool table_len in
    let top = Pmdk.Alloc.zalloc t.pool (n * bucket_len) in
    let bottom = Pmdk.Alloc.zalloc t.pool (n / 2 * bucket_len) in
    Ctx.write_u64 t.ctx ~sid:"lh:mktable.n" (table + t_n) (Tv.const n);
    Ctx.write_u64 t.ctx ~sid:"lh:mktable.top" (table + t_top) (Tv.const top);
    Ctx.write_u64 t.ctx ~sid:"lh:mktable.bottom" (table + t_bottom) (Tv.const bottom);
    Ctx.write_u64 t.ctx ~sid:"lh:mktable.items" (table + t_items) Tv.zero;
    Ctx.persist t.ctx ~sid:"lh:mktable.persist" table table_len;
    table

  let create ctx =
    let pool = Pmdk.Pool.create ctx ~root_size:16 in
    let t = { ctx; pool } in
    let table = alloc_table t ~n:initial_n in
    let root = Pmdk.Pool.root pool in
    Ctx.write_u64 ctx ~sid:"lh:create.root" root (Tv.const table);
    Ctx.persist ctx ~sid:"lh:create.root_persist" root 8;
    t

  let open_ ctx =
    let pool = Pmdk.Pool.open_ ctx in
    let t = { ctx; pool } in
    (* Creation recovery: the pool header is valid but the root table
       pointer never became durable — finish initialization. Past this
       point level hashing has no recovery code; it relies on its write
       ordering. *)
    let root = Pmdk.Pool.root pool in
    let table = Ctx.read_u64 ctx ~sid:"lh:open.table" root in
    if not (Tv.to_bool table) then begin
      let tbl = alloc_table t ~n:initial_n in
      Ctx.write_u64 ctx ~sid:"lh:recover.root" root (Tv.const tbl);
      Ctx.persist ctx ~sid:"lh:recover.root_persist" root 8
    end;
    t

  (* Bump the in-NVM item counter; never flushed (seeded P-U). *)
  let count_items t table delta =
    let c = Ctx.read_u64 t.ctx ~sid:"lh:items.read" (table + t_items) in
    Ctx.write_u64 t.ctx ~sid:"lh:items.update" (table + t_items)
      (Tv.add c (Tv.const delta))

  (* Find the slot holding [k]: guarded reads (token, then key). Calls
     [found bucket j] under the guard; returns its result or None. *)
  let find_slot t table k ~found =
    let rec buckets = function
      | [] -> None
      | b :: rest ->
        let rec slots j =
          if j >= assoc then buckets rest
          else begin
            let tok = Ctx.read_u8 t.ctx ~sid:"lh:find.token" (token_addr b j) in
            match
              Ctx.if_ t.ctx tok
                ~then_:(fun () ->
                    let kv = Ctx.read_u64 t.ctx ~sid:"lh:find.key" (key_addr b j) in
                    Ctx.if_ t.ctx (Tv.eq kv (Tv.const k))
                      ~then_:(fun () -> Some (found b j))
                      ~else_:(fun () -> None))
                ~else_:(fun () -> None)
            with
            | Some r -> Some r
            | None -> slots (j + 1)
          end
        in
        slots 0
    in
    buckets (candidates t table k)

  let read_value t b j =
    let v = Ctx.read_bytes t.ctx ~sid:"lh:read.value" (val_addr b j) val_len in
    Value.strip (Tv.blob_value v)

  (* Write a key/value pair and raise the token.

     Buggy order (Figure 1(b)): stores first, flushes after the token
     store, so the token can persist ahead of the slot.
     Fixed order: slot persisted before the token is written. *)
  let write_slot t b j k v ~sid_prefix =
    let sid s = sid_prefix ^ s in
    Ctx.write_u64 t.ctx ~sid:(sid ".key") (key_addr b j) (Tv.const k);
    Ctx.write_bytes t.ctx ~sid:(sid ".value") (val_addr b j)
      (Tv.blob (Value.pad val_len v));
    if cfg.insert_order then begin
      Ctx.write_u8 t.ctx ~sid:(sid ".token") (token_addr b j) Tv.one;
      Ctx.flush_range t.ctx ~sid:(sid ".flush_slot") (slot_addr b j) slot_len;
      Ctx.fence t.ctx ~sid:(sid ".fence1");
      Ctx.flush t.ctx ~sid:(sid ".flush_token") (token_addr b j);
      if cfg.extra_flush then
        (* BUG (P-EFL): the token line was just flushed. *)
        Ctx.flush t.ctx ~sid:(sid ".extra_flush") (token_addr b j);
      Ctx.fence t.ctx ~sid:(sid ".fence2")
    end
    else begin
      Ctx.persist t.ctx ~sid:(sid ".persist_slot") (slot_addr b j) slot_len;
      Ctx.write_u8 t.ctx ~sid:(sid ".token") (token_addr b j) Tv.one;
      Ctx.persist t.ctx ~sid:(sid ".persist_token") (token_addr b j) 1
    end

  let try_insert_at t table k v ~sid_prefix =
    let rec buckets = function
      | [] -> false
      | b :: rest ->
        let rec slots j =
          if j >= assoc then buckets rest
          else begin
            let tok = Ctx.read_u8 t.ctx ~sid:"lh:insert.probe_token" (token_addr b j) in
            let empty =
              Ctx.if_ t.ctx tok ~then_:(fun () -> false) ~else_:(fun () -> true)
            in
            if empty then begin
              Ctx.with_guard t.ctx (Tv.taint tok) (fun () ->
                  write_slot t b j k v ~sid_prefix);
              count_items t table 1;
              true
            end
            else slots (j + 1)
          end
        in
        slots 0
    in
    buckets (candidates t table k)

  (* Bottom-to-top movement: evict slot 0 of the first candidate bucket to
     its alternate bucket to make room. Only present in the buggy
     configuration (the fixed variant goes straight to rehash). *)
  let try_movement t table k =
    match candidates t table k with
    | [] -> false
    | b :: _ ->
      let j = 0 in
      let vic_k = Tv.value (Ctx.read_u64 t.ctx ~sid:"lh:move.vic_key" (key_addr b j)) in
      let vic_v =
        Tv.blob_value (Ctx.read_bytes t.ctx ~sid:"lh:move.vic_val" (val_addr b j) val_len)
      in
      let alts = List.filter (fun b' -> b' <> b) (candidates t table vic_k) in
      let rec place = function
        | [] -> false
        | b' :: rest ->
          let rec slots jj =
            if jj >= assoc then place rest
            else begin
              let tok =
                Ctx.read_u8 t.ctx ~sid:"lh:move.probe_token" (token_addr b' jj)
              in
              if not (Tv.to_bool tok) then begin
                (* BUG (movement_order, C-O/C-A): the old token is cleared
                   before the moved copy is durable. *)
                Ctx.write_u64 t.ctx ~sid:"lh:move.key" (key_addr b' jj)
                  (Tv.const vic_k);
                Ctx.write_bytes t.ctx ~sid:"lh:move.value" (val_addr b' jj)
                  (Tv.blob vic_v);
                Ctx.write_u8 t.ctx ~sid:"lh:move.new_token" (token_addr b' jj)
                  Tv.one;
                Ctx.write_u8 t.ctx ~sid:"lh:move.clear_old" (token_addr b j)
                  Tv.zero;
                Ctx.flush_range t.ctx ~sid:"lh:move.flush_slot"
                  (slot_addr b' jj) slot_len;
                Ctx.flush t.ctx ~sid:"lh:move.flush_new_token" (token_addr b' jj);
                Ctx.flush t.ctx ~sid:"lh:move.flush_old_token" (token_addr b j);
                Ctx.fence t.ctx ~sid:"lh:move.fence";
                true
              end
              else slots (jj + 1)
            end
          in
          slots 0
      in
      place alts

  (* Rehash into a table twice the size.

     Buggy: old tokens are cleared as items are copied (rehash_clear); a
     crash before the root swap resumes on the old table with holes.
     Fixed: the old table is left untouched and the new table is published
     with one persisted root-pointer store. *)
  let rehash t =
    let table = root_table t in
    let n = table_n t table in
    let new_table = alloc_table t ~n:(2 * n) in
    let copy_bucket b =
      for j = 0 to assoc - 1 do
        let tok = Ctx.read_u8 t.ctx ~sid:"lh:rehash.token" (token_addr b j) in
        Ctx.when_ t.ctx tok (fun () ->
            let k = Tv.value (Ctx.read_u64 t.ctx ~sid:"lh:rehash.key" (key_addr b j)) in
            let v = read_value t b j in
            ignore (try_insert_at t new_table k v ~sid_prefix:"lh:rehash.ins");
            if cfg.rehash_clear then
              (* BUG (C-A): the source token is cleared while the copy in
                 the new table may still be volatile and the root still
                 points at the old table. *)
              Ctx.write_u8 t.ctx ~sid:"lh:rehash.clear_old" (token_addr b j)
                Tv.zero)
      done
    in
    let top = table_top t table and bottom = table_bottom t table in
    for i = 0 to n - 1 do copy_bucket (top + (i * bucket_len)) done;
    for i = 0 to (n / 2) - 1 do copy_bucket (bottom + (i * bucket_len)) done;
    if cfg.rehash_clear then
      Ctx.fence t.ctx ~sid:"lh:rehash.clear_fence";
    let root = Pmdk.Pool.root t.pool in
    Ctx.write_u64 t.ctx ~sid:"lh:rehash.swap" root (Tv.const new_table);
    Ctx.persist t.ctx ~sid:"lh:rehash.swap_persist" root 8

  let insert t k v =
    let table0 = root_table t in
    match find_slot t table0 k ~found:(fun b j -> (b, j)) with
    | Some (b, j) ->
      (* Upsert: the key exists, overwrite in place. *)
      Ctx.write_bytes t.ctx ~sid:"lh:insert.upsert" (val_addr b j)
        (Tv.blob (Value.pad val_len v));
      Ctx.persist t.ctx ~sid:"lh:insert.upsert_persist" (val_addr b j) val_len;
      Output.Ok
    | None ->
    let rec attempt tries =
      if tries > 3 then Output.Fail "full"
      else begin
        let table = root_table t in
        if try_insert_at t table k v ~sid_prefix:"lh:insert" then Output.Ok
        else if cfg.movement_order && try_movement t table k then attempt (tries + 1)
        else begin
          rehash t;
          attempt (tries + 1)
        end
      end
    in
    attempt 0

  let update t k v =
    let table = root_table t in
    let target = find_slot t table k ~found:(fun b j -> (b, j)) in
    match target with
    | None -> Output.Not_found
    | Some (b, j) ->
      if cfg.update_atomic then begin
        (* Opportunistic log-free update (Figure 1(c)): copy into an empty
           slot of the same bucket and flip the two tokens; the flushes
           come after both token stores. *)
        let rec empty_slot jj =
          if jj >= assoc then None
          else begin
            let tok = Ctx.read_u8 t.ctx ~sid:"lh:update.probe_token" (token_addr b jj) in
            if not (Tv.to_bool tok) then Some jj else empty_slot (jj + 1)
          end
        in
        match empty_slot 0 with
        | Some jj ->
          Ctx.write_u64 t.ctx ~sid:"lh:update.key" (key_addr b jj) (Tv.const k);
          Ctx.write_bytes t.ctx ~sid:"lh:update.value" (val_addr b jj)
            (Tv.blob (Value.pad val_len v));
          Ctx.write_u8 t.ctx ~sid:"lh:update.clear_old" (token_addr b j) Tv.zero;
          Ctx.write_u8 t.ctx ~sid:"lh:update.set_new" (token_addr b jj) Tv.one;
          Ctx.flush_range t.ctx ~sid:"lh:update.flush_slot" (slot_addr b jj) slot_len;
          Ctx.flush t.ctx ~sid:"lh:update.flush_tokens" (token_addr b j);
          Ctx.flush t.ctx ~sid:"lh:update.flush_tokens2" (token_addr b jj);
          Ctx.fence t.ctx ~sid:"lh:update.fence";
          Output.Ok
        | None ->
          (* In-place overwrite without ordering care. *)
          Ctx.write_bytes t.ctx ~sid:"lh:update.inplace" (val_addr b j)
            (Tv.blob (Value.pad val_len v));
          Ctx.persist t.ctx ~sid:"lh:update.inplace_persist" (val_addr b j) val_len;
          Output.Ok
      end
      else begin
        Ctx.write_bytes t.ctx ~sid:"lh:update.inplace" (val_addr b j)
          (Tv.blob (Value.pad val_len v));
        Ctx.persist t.ctx ~sid:"lh:update.inplace_persist" (val_addr b j) val_len;
        Output.Ok
      end

  let delete t k =
    let table = root_table t in
    match find_slot t table k ~found:(fun b j -> (b, j)) with
    | None -> Output.Not_found
    | Some (b, j) ->
      Ctx.write_u8 t.ctx ~sid:"lh:delete.token" (token_addr b j) Tv.zero;
      Ctx.persist t.ctx ~sid:"lh:delete.persist" (token_addr b j) 1;
      count_items t table (-1);
      Output.Ok

  let query t k =
    let table = root_table t in
    match find_slot t table k ~found:(fun b j -> read_value t b j) with
    | None -> Output.Not_found
    | Some v -> Output.Found v

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
