(* WORT — Write-Optimal Radix Tree (Lee et al., FAST '17; paper row
   "WORT"). A fixed-fanout radix tree over the key's nibbles. Every
   structural change boils down to allocate-and-initialize new nodes and
   then publish them with a single atomic 8-byte pointer store — the
   "write optimal" property that makes the design crash-consistent
   without logging. Matching Table 5, WORT has no correctness bugs; it
   carries one unpersisted counter (P-U) and one redundant flush (P-EFL),
   the two performance findings the paper reports. *)

open Nvm
module Op = Witcher.Op
module Output = Witcher.Output

let fanout = 16
let bits = 4
let levels = 4  (* 16-bit keyspace *)
let node_len = fanout * 8
let leaf_len = 16  (* key 8 | value 8 *)
let val_len = 8
let key_mask = (1 lsl (bits * levels)) - 1

module M = struct
  let name = "wort"
  let pool_size = 8 * 1024 * 1024
  let supports_scan = false

  type t = {
    ctx : Ctx.t;
    pool : Pmdk.Pool.t;
  }

  (* root object: root node ptr | item counter (never flushed: P-U) *)

  let nibble k level = (k lsr (bits * (levels - 1 - level))) land (fanout - 1)

  let child_addr node i = node + (i * 8)

  let alloc_node t =
    let node = Pmdk.Alloc.zalloc t.pool node_len in
    node

  let create ctx =
    let pool = Pmdk.Pool.create ctx ~root_size:16 in
    let t = { ctx; pool } in
    let root = alloc_node t in
    let r = Pmdk.Pool.root pool in
    Ctx.write_u64 ctx ~sid:"wort:create.root" r (Tv.const root);
    Ctx.persist ctx ~sid:"wort:create.root_persist" r 8;
    t

  let open_ ctx =
    let pool = Pmdk.Pool.open_ ctx in
    let t = { ctx; pool } in
    let r = Pmdk.Pool.root pool in
    if not (Tv.to_bool (Ctx.read_u64 ctx ~sid:"wort:open.root" r)) then begin
      let root = alloc_node t in
      Ctx.write_u64 ctx ~sid:"wort:recover.root" r (Tv.const root);
      Ctx.persist ctx ~sid:"wort:recover.root_persist" r 8
    end;
    t

  let root_node t =
    Tv.value (Ctx.read_ptr t.ctx ~sid:"wort:root" (Pmdk.Pool.root t.pool))

  let bump_counter t =
    let a = Pmdk.Pool.root t.pool + 8 in
    let c = Ctx.read_u64 t.ctx ~sid:"wort:counter.read" a in
    (* P-U: the item counter lives in NVM and is never flushed. *)
    Ctx.write_u64 t.ctx ~sid:"wort:counter.update" a (Tv.add c Tv.one)

  (* Walk to the slot that holds (or would hold) [k]'s leaf pointer. *)
  let slot_for t k ~make =
    let k = k land key_mask in
    let rec go node level =
      let slot = child_addr node (nibble k level) in
      if level = levels - 1 then Some slot
      else begin
        let child = Tv.value (Ctx.read_ptr t.ctx ~sid:"wort:walk.child" slot) in
        if child <> 0 then go child (level + 1)
        else if not make then None
        else begin
          (* Allocate-then-link: the fresh node is durable (zalloc) before
             the single atomic pointer store publishes it. *)
          let fresh = alloc_node t in
          Ctx.write_u64 t.ctx ~sid:"wort:link.child" slot (Tv.const fresh);
          Ctx.persist t.ctx ~sid:"wort:link.persist" slot 8;
          go fresh (level + 1)
        end
      end
    in
    go (root_node t) 0

  let leaf_of t slot =
    let leaf = Tv.value (Ctx.read_ptr t.ctx ~sid:"wort:leaf.ptr" slot) in
    if leaf = 0 then None else Some leaf

  let write_leaf t k v =
    let leaf = Pmdk.Alloc.alloc t.pool leaf_len in
    Ctx.write_u64 t.ctx ~sid:"wort:leaf.key" leaf (Tv.const (k land key_mask));
    Ctx.write_bytes t.ctx ~sid:"wort:leaf.value" (leaf + 8)
      (Tv.blob (Value.pad val_len v));
    Ctx.persist t.ctx ~sid:"wort:leaf.persist" leaf leaf_len;
    leaf

  let insert t k v =
    match slot_for t k ~make:true with
    | None -> Output.Fail "unreachable"
    | Some slot ->
      (match leaf_of t slot with
       | Some leaf ->
         Ctx.write_bytes t.ctx ~sid:"wort:insert.overwrite" (leaf + 8)
           (Tv.blob (Value.pad val_len v));
         Ctx.persist t.ctx ~sid:"wort:insert.overwrite_persist" (leaf + 8) 8
       | None ->
         let leaf = write_leaf t k v in
         Ctx.write_u64 t.ctx ~sid:"wort:insert.link" slot (Tv.const leaf);
         Ctx.persist t.ctx ~sid:"wort:insert.link_persist" slot 8;
         (* P-EFL: the slot line was just flushed by the persist above. *)
         Ctx.flush t.ctx ~sid:"wort:insert.extra_flush" slot;
         bump_counter t);
      Output.Ok

  let with_leaf t k ~found =
    match slot_for t k ~make:false with
    | None -> None
    | Some slot ->
      (match leaf_of t slot with
       | None -> None
       | Some leaf ->
         let key = Ctx.read_u64 t.ctx ~sid:"wort:find.key" leaf in
         Ctx.if_ t.ctx (Tv.eq key (Tv.const (k land key_mask)))
           ~then_:(fun () -> Some (found slot leaf))
           ~else_:(fun () -> None))

  let update t k v =
    match
      with_leaf t k ~found:(fun _slot leaf ->
          Ctx.write_bytes t.ctx ~sid:"wort:update.value" (leaf + 8)
            (Tv.blob (Value.pad val_len v));
          Ctx.persist t.ctx ~sid:"wort:update.persist" (leaf + 8) 8)
    with
    | Some () -> Output.Ok
    | None -> Output.Not_found

  let delete t k =
    match
      with_leaf t k ~found:(fun slot _leaf ->
          Ctx.write_u64 t.ctx ~sid:"wort:delete.unlink" slot Tv.zero;
          Ctx.persist t.ctx ~sid:"wort:delete.persist" slot 8)
    with
    | Some () -> Output.Ok
    | None -> Output.Not_found

  let query t k =
    match
      with_leaf t k ~found:(fun _slot leaf ->
          Value.strip
            (Tv.blob_value
               (Ctx.read_bytes t.ctx ~sid:"wort:read.value" (leaf + 8) 8)))
    with
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

let make () : Witcher.Store_intf.instance = (module M)
let buggy = make
let fixed = make
