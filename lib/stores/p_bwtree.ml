(* P-BwTree — the RECIPE conversion of the Bw-Tree (paper row "P-BwTree",
   bugs 28-29). The Bw-Tree never updates pages in place: every mutation
   prepends a delta record to a per-page chain reachable from a mapping
   table. We keep the essential shape: a hash-distributed mapping table
   whose entries head chains of delta records (insert / delete / update),
   with lookups replaying the chain from the newest delta.

   Seeded defects (both C-O "missing persistence primitives"):
   - [insert_noflush] (bug 28): the insert delta's payload is never
     flushed before the chain head is persisted to point at it.
   - [delete_noflush] (bug 29): same for the delete delta — the tombstone
     can vanish while the head already skips to it, resurrecting the key.

   The fixed variant persists every delta before publishing it with the
   atomic head store. *)

open Nvm
module Op = Witcher.Op
module Output = Witcher.Output

type cfg = {
  insert_noflush : bool;
  delete_noflush : bool;
}

let buggy_cfg = { insert_noflush = true; delete_noflush = true }
let fixed_cfg = { insert_noflush = false; delete_noflush = false }

let n_pages = 64
let val_len = 8

(* delta: kind(8: 1=insert/update, 2=delete) | key(8) | value(8) | next(8) *)
let d_kind = 0
let d_key = 8
let d_val = 16
let d_next = 24
let delta_len = 32

let hash k = (k * 0x9E3779B1) land 0x3FFFFFFF

module Make (C : sig val cfg : cfg end) = struct
  let name = "p-bwtree"
  let pool_size = 8 * 1024 * 1024
  let supports_scan = false

  let cfg = C.cfg

  type t = {
    ctx : Ctx.t;
    pool : Pmdk.Pool.t;
  }

  (* root object: mapping table ptr *)
  let mapping t =
    Tv.value (Ctx.read_ptr t.ctx ~sid:"bw:root.mapping" (Pmdk.Pool.root t.pool))

  let head_addr t k = mapping t + (hash k mod n_pages * 8)

  let create_table ctx pool =
    let tbl = Pmdk.Alloc.zalloc pool (n_pages * 8) in
    let r = Pmdk.Pool.root pool in
    Ctx.write_u64 ctx ~sid:"bw:create.root" r (Tv.const tbl);
    Ctx.persist ctx ~sid:"bw:create.root_persist" r 8

  let create ctx =
    let pool = Pmdk.Pool.create ctx ~root_size:16 in
    create_table ctx pool;
    { ctx; pool }

  let open_ ctx =
    let pool = Pmdk.Pool.open_ ctx in
    let r = Pmdk.Pool.root pool in
    if not (Tv.to_bool (Ctx.read_u64 ctx ~sid:"bw:open.root" r)) then
      create_table ctx pool;
    { ctx; pool }

  (* Prepend a delta record and publish it as the new chain head. *)
  let prepend t k ~kind ~v ~noflush ~sid_prefix =
    let ha = head_addr t k in
    let head = Ctx.read_u64 t.ctx ~sid:(sid_prefix ^ ".head") ha in
    let d = Pmdk.Alloc.alloc t.pool delta_len in
    Ctx.write_u64 t.ctx ~sid:(sid_prefix ^ ".kind") (d + d_kind) (Tv.const kind);
    Ctx.write_u64 t.ctx ~sid:(sid_prefix ^ ".key") (d + d_key) (Tv.const k);
    Ctx.write_bytes t.ctx ~sid:(sid_prefix ^ ".value") (d + d_val)
      (Tv.blob (Value.pad val_len v));
    Ctx.write_u64 t.ctx ~sid:(sid_prefix ^ ".next") (d + d_next) head;
    if not noflush then
      Ctx.persist t.ctx ~sid:(sid_prefix ^ ".persist") d delta_len;
    (* BUG when [noflush] (bugs 28-29, C-O): the head below is persisted
       while the delta it points at is not. *)
    Ctx.write_u64 t.ctx ~sid:(sid_prefix ^ ".publish") ha (Tv.const d);
    Ctx.persist t.ctx ~sid:(sid_prefix ^ ".publish_persist") ha 8

  (* Replay the chain from the newest delta; the first record for [k]
     wins. Reads are guarded pointer-chases through [d_next]. *)
  let find t k ~found =
    let ha = head_addr t k in
    let rec walk d =
      if d = 0 then None
      else begin
        let key = Ctx.read_u64 t.ctx ~sid:"bw:find.key" (d + d_key) in
        match
          Ctx.if_ t.ctx (Tv.eq key (Tv.const k))
            ~then_:(fun () ->
                let kind = Ctx.read_u64 t.ctx ~sid:"bw:find.kind" (d + d_kind) in
                if Tv.value kind = 2 then Some `Deleted else Some (`Found (found d)))
            ~else_:(fun () -> None)
        with
        | Some r -> Some r
        | None ->
          walk (Tv.value (Ctx.read_ptr t.ctx ~sid:"bw:find.next" (d + d_next)))
      end
    in
    walk (Tv.value (Ctx.read_ptr t.ctx ~sid:"bw:find.head" ha))

  let read_value t d =
    Value.strip
      (Tv.blob_value (Ctx.read_bytes t.ctx ~sid:"bw:read.value" (d + d_val) 8))

  let present t k =
    match find t k ~found:(fun _ -> ()) with
    | Some (`Found ()) -> true
    | Some `Deleted | None -> false

  let insert t k v =
    prepend t k ~kind:1 ~v ~noflush:cfg.insert_noflush ~sid_prefix:"bw:insert";
    Output.Ok

  let update t k v =
    if present t k then begin
      prepend t k ~kind:1 ~v ~noflush:false ~sid_prefix:"bw:update";
      Output.Ok
    end
    else Output.Not_found

  let delete t k =
    if present t k then begin
      prepend t k ~kind:2 ~v:"" ~noflush:cfg.delete_noflush ~sid_prefix:"bw:delete";
      Output.Ok
    end
    else Output.Not_found

  let query t k =
    match find t k ~found:(fun d -> read_value t d) with
    | Some (`Found v) -> Output.Found v
    | Some `Deleted | None -> Output.Not_found

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
