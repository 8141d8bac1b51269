(* PMDK example C-Tree (paper row "C-Tree"): a crit-bit tree where every
   mutation is a single logged pointer update plus freshly allocated
   nodes. The paper found no bugs in it (Table 5 reports zeros across the
   board), and this port keeps it that way — it serves as the negative
   control for the whole pipeline: Witcher must report nothing.

   Interior node: tag(8)=1 | crit bit(8) | left(8) | right(8).
   Leaf: tag(8)=2 | key(8) | value(8 bytes payload). *)

open Nvm
module Op = Witcher.Op
module Output = Witcher.Output

let key_bits = 16
let key_mask = (1 lsl key_bits) - 1
let val_len = 8
let node_len = 32
let leaf_len = 24

module M = struct
  let name = "c-tree"
  let pool_size = 8 * 1024 * 1024
  let supports_scan = false

  type t = {
    ctx : Ctx.t;
    pool : Pmdk.Pool.t;
  }

  let bit_of k b = (k lsr (key_bits - 1 - b)) land 1
  let root_slot t = Pmdk.Pool.root t.pool

  let create ctx =
    let pool = Pmdk.Pool.create ctx ~root_size:16 in
    { ctx; pool }

  let open_ ctx =
    let pool = Pmdk.Pool.open_ ctx in
    Pmdk.Tx.recover pool;
    { ctx; pool }

  let tag_of t n = Tv.value (Ctx.read_u64 t.ctx ~sid:"ct:node.tag" n)
  let node_bit t n = Tv.value (Ctx.read_u64 t.ctx ~sid:"ct:node.bit" (n + 8))

  let child_slot t n k =
    if bit_of k (node_bit t n) = 0 then n + 16 else n + 24

  let descend t k =
    let rec go slot =
      let n = Tv.value (Ctx.read_ptr t.ctx ~sid:"ct:walk.ptr" slot) in
      if n = 0 then (slot, None)
      else if tag_of t n = 2 then (slot, Some n)
      else go (child_slot t n k)
    in
    go (root_slot t)

  let leaf_key t leaf = Ctx.read_u64 t.ctx ~sid:"ct:leaf.key" (leaf + 8)

  let mk_leaf t k v =
    let leaf = Pmdk.Alloc.alloc t.pool leaf_len in
    Ctx.write_u64 t.ctx ~sid:"ct:mkleaf.tag" leaf (Tv.const 2);
    Ctx.write_u64 t.ctx ~sid:"ct:mkleaf.key" (leaf + 8) (Tv.const k);
    Ctx.write_bytes t.ctx ~sid:"ct:mkleaf.value" (leaf + 16)
      (Tv.blob (Value.pad val_len v));
    Ctx.persist t.ctx ~sid:"ct:mkleaf.persist" leaf leaf_len;
    leaf

  let crit_bit a b =
    let x = a lxor b in
    let rec go i =
      if (x lsr (key_bits - 1 - i)) land 1 = 1 then i else go (i + 1)
    in
    go 0

  let insert t k v =
    let k = k land key_mask in
    let slot, leaf = descend t k in
    match leaf with
    | None ->
      Pmdk.Tx.run t.pool (fun tx ->
          let nleaf = mk_leaf t k v in
          Pmdk.Tx.add_range tx slot 8;
          Ctx.write_u64 t.ctx ~sid:"ct:insert.plant" slot (Tv.const nleaf));
      Output.Ok
    | Some leaf ->
      let key = leaf_key t leaf in
      Ctx.if_ t.ctx (Tv.eq key (Tv.const k))
        ~then_:(fun () ->
            Pmdk.Tx.run t.pool (fun tx ->
                Pmdk.Tx.add_range tx (leaf + 16) 8;
                Ctx.write_bytes t.ctx ~sid:"ct:insert.upsert" (leaf + 16)
                  (Tv.blob (Value.pad val_len v)));
            Output.Ok)
        ~else_:(fun () ->
            (* create an interior node over old and new leaf, publish it
               with one logged pointer store *)
            Pmdk.Tx.run t.pool (fun tx ->
                let ok = Tv.value (leaf_key t leaf) in
                let bit = crit_bit ok k in
                let nleaf = mk_leaf t k v in
                let node = Pmdk.Alloc.alloc t.pool node_len in
                Ctx.write_u64 t.ctx ~sid:"ct:mknode.tag" node Tv.one;
                Ctx.write_u64 t.ctx ~sid:"ct:mknode.bit" (node + 8)
                  (Tv.const bit);
                let l, r =
                  if bit_of k bit = 0 then (nleaf, leaf) else (leaf, nleaf)
                in
                Ctx.write_u64 t.ctx ~sid:"ct:mknode.left" (node + 16) (Tv.const l);
                Ctx.write_u64 t.ctx ~sid:"ct:mknode.right" (node + 24) (Tv.const r);
                Ctx.persist t.ctx ~sid:"ct:mknode.persist" node node_len;
                Pmdk.Tx.add_range tx slot 8;
                Ctx.write_u64 t.ctx ~sid:"ct:insert.publish" slot (Tv.const node));
            Output.Ok)

  let with_exact t k ~found =
    match descend t (k land key_mask) with
    | _, None -> None
    | slot, Some leaf ->
      let key = leaf_key t leaf in
      Ctx.if_ t.ctx (Tv.eq key (Tv.const (k land key_mask)))
        ~then_:(fun () -> Some (found slot leaf))
        ~else_:(fun () -> None)

  let update t k v =
    match
      with_exact t k ~found:(fun _slot leaf ->
          Pmdk.Tx.run t.pool (fun tx ->
              Pmdk.Tx.add_range tx (leaf + 16) 8;
              Ctx.write_bytes t.ctx ~sid:"ct:update.value" (leaf + 16)
                (Tv.blob (Value.pad val_len v))))
    with
    | Some () -> Output.Ok
    | None -> Output.Not_found

  let delete t k =
    match
      with_exact t k ~found:(fun slot _leaf ->
          Pmdk.Tx.run t.pool (fun tx ->
              Pmdk.Tx.add_range tx slot 8;
              Ctx.write_u64 t.ctx ~sid:"ct:delete.unlink" slot Tv.zero))
    with
    | Some () -> Output.Ok
    | None -> Output.Not_found

  let query t k =
    match
      with_exact t k ~found:(fun _slot leaf ->
          Value.strip
            (Tv.blob_value
               (Ctx.read_bytes t.ctx ~sid:"ct:read.value" (leaf + 16) 8)))
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
