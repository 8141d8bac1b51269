(* pmem-Memcached (paper row "Memcached", bug 47 + 29 unpersisted
   counters). Memcached's PMDK port keeps only the item hash table in NVM
   — the rest of the server state is volatile — but the port also left a
   large block of statistics counters in the persistent heap without ever
   flushing them: the paper's 29 P-U findings. We reproduce both: a
   chained item table plus a stats page of NVM counters bumped on every
   command and never flushed.

   Seeded defect ([link_noflush], bug 47, items.c:538, C-O "missing
   persistence primitives"): linking a fresh item into its bucket chain
   persists the chain head but never the item itself. *)

open Nvm
module Op = Witcher.Op
module Output = Witcher.Output

type cfg = { link_noflush : bool }

let buggy_cfg = { link_noflush = true }
let fixed_cfg = { link_noflush = false }

let n_buckets = 64
let val_len = 8

let i_key = 0
let i_val = 8
let i_next = 16
let item_len = 24

(* The stats page: one 8-byte counter per field, bumped in ops and never
   flushed — each is a distinct P-U site, like the paper's 29. *)
let stat_names =
  [ "cmd_get"; "cmd_set"; "cmd_delete"; "cmd_update"; "get_hits";
    "get_misses"; "delete_hits"; "delete_misses"; "update_hits";
    "update_misses"; "set_hits"; "total_items"; "curr_items"; "curr_bytes";
    "bytes_read"; "bytes_written"; "expired_unfetched"; "evicted";
    "evicted_unfetched"; "reclaimed"; "touch_hits"; "touch_misses";
    "incr_hits"; "incr_misses"; "decr_hits"; "decr_misses"; "cas_hits";
    "cas_misses"; "conn_yields" ]

let hash k = (k * 0x9E3779B1) land 0x3FFFFFFF

module Make (C : sig val cfg : cfg end) = struct
  let name = "memcached"
  let pool_size = 4 * 1024 * 1024
  let supports_scan = false

  let cfg = C.cfg

  type t = {
    ctx : Ctx.t;
    pool : Pmdk.Pool.t;
  }

  (* root object: buckets ptr(8) | stats base(8) *)

  let create_state ctx pool =
    let b = Pmdk.Alloc.zalloc pool (n_buckets * 8) in
    let stats = Pmdk.Alloc.zalloc pool (List.length stat_names * 8) in
    let r = Pmdk.Pool.root pool in
    Ctx.write_u64 ctx ~sid:"mc:create.stats" (r + 8) (Tv.const stats);
    Ctx.persist ctx ~sid:"mc:create.stats_persist" (r + 8) 8;
    Ctx.write_u64 ctx ~sid:"mc:create.buckets" r (Tv.const b);
    Ctx.persist ctx ~sid:"mc:create.buckets_persist" r 8

  let create ctx =
    let pool = Pmdk.Pool.create ctx ~root_size:16 in
    create_state ctx pool;
    { ctx; pool }

  let open_ ctx =
    let pool = Pmdk.Pool.open_ ctx in
    if not (Tv.to_bool (Ctx.read_u64 ctx ~sid:"mc:open.buckets" (Pmdk.Pool.root pool)))
    then create_state ctx pool;
    { ctx; pool }

  let stat_index n =
    let rec go i = function
      | [] -> 0
      | x :: rest -> if String.equal x n then i else go (i + 1) rest
    in
    go 0 stat_names

  (* Bump an NVM stats counter; never flushed (P-U, one site per stat). *)
  let bump t stat =
    let r = Pmdk.Pool.root t.pool in
    let base = Tv.value (Ctx.read_u64 t.ctx ~sid:"mc:stats.base" (r + 8)) in
    let a = base + (stat_index stat * 8) in
    let c = Ctx.read_u64 t.ctx ~sid:("mc:stats.read_" ^ stat) a in
    Ctx.write_u64 t.ctx ~sid:("mc:stats." ^ stat) a (Tv.add c Tv.one)

  let buckets t =
    Tv.value (Ctx.read_ptr t.ctx ~sid:"mc:root.buckets" (Pmdk.Pool.root t.pool))

  let bucket_addr t k = buckets t + (hash k mod n_buckets * 8)

  let find t k =
    let rec go slot =
      let e = Tv.value (Ctx.read_ptr t.ctx ~sid:"mc:find.item" slot) in
      if e = 0 then None
      else begin
        let key = Ctx.read_u64 t.ctx ~sid:"mc:find.key" (e + i_key) in
        match
          Ctx.if_ t.ctx (Tv.eq key (Tv.const k))
            ~then_:(fun () -> Some (slot, e))
            ~else_:(fun () -> None)
        with
        | Some r -> Some r
        | None -> go (e + i_next)
      end
    in
    go (bucket_addr t k)

  let insert t k v =
    bump t "cmd_set";
    bump t "bytes_read";
    match find t k with
    | Some (_, e) ->
      bump t "set_hits";
      Ctx.write_bytes t.ctx ~sid:"mc:insert.upsert" (e + i_val)
        (Tv.blob (Value.pad val_len v));
      Ctx.persist t.ctx ~sid:"mc:insert.upsert_persist" (e + i_val) 8;
      Output.Ok
    | None ->
      bump t "total_items";
      bump t "curr_items";
      bump t "curr_bytes";
      let slot = bucket_addr t k in
      let head = Ctx.read_u64 t.ctx ~sid:"mc:insert.head" slot in
      let e = Pmdk.Alloc.zalloc t.pool item_len in
      Ctx.write_u64 t.ctx ~sid:"mc:insert.key" (e + i_key) (Tv.const k);
      Ctx.write_bytes t.ctx ~sid:"mc:insert.value" (e + i_val)
        (Tv.blob (Value.pad val_len v));
      Ctx.write_u64 t.ctx ~sid:"mc:insert.next" (e + i_next) head;
      if not cfg.link_noflush then
        Ctx.persist t.ctx ~sid:"mc:insert.item_persist" e item_len;
      (* BUG when [link_noflush] (bug 47, C-O): the head below is durable
         while the item it references is not. *)
      Ctx.write_u64 t.ctx ~sid:"mc:insert.link" slot (Tv.const e);
      Ctx.persist t.ctx ~sid:"mc:insert.link_persist" slot 8;
      Output.Ok

  let update t k v =
    bump t "cmd_update";
    match find t k with
    | Some (_, e) ->
      bump t "update_hits";
      bump t "bytes_written";
      Ctx.write_bytes t.ctx ~sid:"mc:update.value" (e + i_val)
        (Tv.blob (Value.pad val_len v));
      Ctx.persist t.ctx ~sid:"mc:update.persist" (e + i_val) 8;
      Output.Ok
    | None ->
      bump t "update_misses";
      Output.Not_found

  let delete t k =
    bump t "cmd_delete";
    match find t k with
    | Some (slot, e) ->
      bump t "delete_hits";
      bump t "evicted";
      bump t "reclaimed";
      let nxt = Ctx.read_u64 t.ctx ~sid:"mc:delete.next" (e + i_next) in
      Ctx.write_u64 t.ctx ~sid:"mc:delete.unlink" slot nxt;
      Ctx.persist t.ctx ~sid:"mc:delete.unlink_persist" slot 8;
      Output.Ok
    | None ->
      bump t "delete_misses";
      Output.Not_found

  let query t k =
    bump t "cmd_get";
    match find t k with
    | Some (_, e) ->
      bump t "get_hits";
      bump t "bytes_written";
      Output.Found
        (Value.strip
           (Tv.blob_value (Ctx.read_bytes t.ctx ~sid:"mc:read.value" (e + i_val) 8)))
    | None ->
      bump t "get_misses";
      Output.Not_found

  (* Exercise the remaining counter sites deterministically so the paper's
     full P-U surface appears in the trace (Memcached touches these on
     maintenance paths). *)
  let background t k =
    if k land 7 = 0 then begin
      bump t "expired_unfetched";
      bump t "evicted_unfetched";
      bump t "touch_hits";
      bump t "touch_misses";
      bump t "incr_hits";
      bump t "incr_misses";
      bump t "decr_hits";
      bump t "decr_misses";
      bump t "cas_hits";
      bump t "cas_misses";
      bump t "conn_yields"
    end

  let exec t op =
    match op with
    | Op.Insert (k, v) -> background t k; insert t k v
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
