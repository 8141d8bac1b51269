(* P-HOT — the RECIPE conversion of the Height-Optimized Trie (paper row
   "P-Hot", bugs 36-38). We keep the structural essence relevant to the
   bugs: a binary trie over key bits whose interior nodes are two-entry
   nodes (the original's TwoEntriesNode) carrying a discriminating bit
   index and two children; leaves hold the key and value.

   Seeded defects (all C-O "missing persistence primitives", three
   distinct sites as in the paper):
   - [node_noflush]   (bug 36, TwoEntriesNode.hpp): a freshly built
     two-entry node is published in the parent without being flushed.
   - [update_noflush] (bug 37, HOTRowexNode.hpp): the in-place value
     update is only fenced, never flushed.
   - [root_noflush]   (bug 38, HOTRowex.hpp): the root-replacement path
     publishes an unflushed node as the new root. *)

open Nvm
module Op = Witcher.Op
module Output = Witcher.Output

type cfg = {
  node_noflush : bool;
  update_noflush : bool;
  root_noflush : bool;
}

let buggy_cfg = { node_noflush = true; update_noflush = true; root_noflush = true }
let fixed_cfg = { node_noflush = false; update_noflush = false; root_noflush = false }

let key_bits = 16
let key_mask = (1 lsl key_bits) - 1
let val_len = 8

(* interior: tag(8)=1 | bit(8) | left(8) | right(8) ; leaf: tag(8)=2 | key(8) | value(8) *)
let node_len = 32
let leaf_len = 24

module Make (C : sig val cfg : cfg end) = struct
  let name = "p-hot"
  let pool_size = 8 * 1024 * 1024
  let supports_scan = false

  let cfg = C.cfg

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
    { ctx; pool }

  let tag_of t n = Tv.value (Ctx.read_u64 t.ctx ~sid:"hot:node.tag" n)
  let node_bit t n = Tv.value (Ctx.read_u64 t.ctx ~sid:"hot:node.bit" (n + 8))

  let child_slot t n k =
    if bit_of k (node_bit t n) = 0 then n + 16 else n + 24

  let mk_leaf t k v =
    let leaf = Pmdk.Alloc.alloc t.pool leaf_len in
    Ctx.write_u64 t.ctx ~sid:"hot:mkleaf.tag" leaf (Tv.const 2);
    Ctx.write_u64 t.ctx ~sid:"hot:mkleaf.key" (leaf + 8) (Tv.const k);
    Ctx.write_bytes t.ctx ~sid:"hot:mkleaf.value" (leaf + 16)
      (Tv.blob (Value.pad val_len v));
    Ctx.persist t.ctx ~sid:"hot:mkleaf.persist" leaf leaf_len;
    leaf

  (* Descend to the slot for [k]: the pointer slot plus the leaf it holds
     (None when the slot is empty, e.g. after a delete). *)
  let descend t k =
    let rec go slot =
      let n = Tv.value (Ctx.read_ptr t.ctx ~sid:"hot:walk.ptr" slot) in
      if n = 0 then (slot, None)
      else if tag_of t n = 2 then (slot, Some n)
      else go (child_slot t n k)
    in
    go (root_slot t)

  let leaf_key t leaf = Ctx.read_u64 t.ctx ~sid:"hot:leaf.key" (leaf + 8)

  (* First bit position where [a] and [b] differ. *)
  let crit_bit a b =
    let x = a lxor b in
    let rec go i = if (x lsr (key_bits - 1 - i)) land 1 = 1 then i else go (i + 1) in
    go 0

  (* Build a two-entry node over an existing leaf and a new one, then
     publish it in [slot]. *)
  let split_leaf t slot old_leaf k v =
    let ok = Tv.value (leaf_key t old_leaf) in
    let nk = k land key_mask in
    let bit = crit_bit ok nk in
    let nleaf = mk_leaf t nk v in
    let node = Pmdk.Alloc.alloc t.pool node_len in
    Ctx.write_u64 t.ctx ~sid:"hot:mknode.tag" node Tv.one;
    Ctx.write_u64 t.ctx ~sid:"hot:mknode.bit" (node + 8) (Tv.const bit);
    let l, r = if bit_of nk bit = 0 then (nleaf, old_leaf) else (old_leaf, nleaf) in
    Ctx.write_u64 t.ctx ~sid:"hot:mknode.left" (node + 16) (Tv.const l);
    Ctx.write_u64 t.ctx ~sid:"hot:mknode.right" (node + 24) (Tv.const r);
    let is_root = slot = root_slot t in
    if is_root then begin
      if not cfg.root_noflush then
        (* BUG when absent (bug 38, C-O): unflushed node published as root *)
        Ctx.persist t.ctx ~sid:"hot:mknode.root_persist" node node_len
    end
    else if not cfg.node_noflush then
      (* BUG when absent (bug 36, C-O): unflushed two-entry node *)
      Ctx.persist t.ctx ~sid:"hot:mknode.persist" node node_len;
    Ctx.write_u64 t.ctx
      ~sid:(if is_root then "hot:publish.root" else "hot:publish.node")
      slot (Tv.const node);
    Ctx.persist t.ctx ~sid:"hot:publish.persist" slot 8

  let insert t k v =
    let k = k land key_mask in
    match descend t k with
    | slot, None ->
      (* empty slot (fresh trie or a deleted leaf): plant the leaf here *)
      let leaf = mk_leaf t k v in
      Ctx.write_u64 t.ctx ~sid:"hot:insert.first" slot (Tv.const leaf);
      Ctx.persist t.ctx ~sid:"hot:insert.first_persist" slot 8;
      Output.Ok
    | slot, Some leaf ->
      let key = leaf_key t leaf in
      Ctx.if_ t.ctx (Tv.eq key (Tv.const k))
        ~then_:(fun () ->
            Ctx.write_bytes t.ctx ~sid:"hot:insert.upsert" (leaf + 16)
              (Tv.blob (Value.pad val_len v));
            Ctx.persist t.ctx ~sid:"hot:insert.upsert_persist" (leaf + 16) 8;
            Output.Ok)
        ~else_:(fun () ->
            split_leaf t slot leaf k v;
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
          Ctx.write_bytes t.ctx ~sid:"hot:update.value" (leaf + 16)
            (Tv.blob (Value.pad val_len v));
          if cfg.update_noflush then
            (* BUG (bug 37, C-O): fence without flush *)
            Ctx.fence t.ctx ~sid:"hot:update.fence_only"
          else
            Ctx.persist t.ctx ~sid:"hot:update.persist" (leaf + 16) 8)
    with
    | Some () -> Output.Ok
    | None -> Output.Not_found

  (* Delete replaces the leaf pointer with the null sentinel; readers
     treat an empty slot as absent, so the single store is atomic. *)
  let delete t k =
    match
      with_exact t k ~found:(fun slot _leaf ->
          Ctx.write_u64 t.ctx ~sid:"hot:delete.unlink" slot Tv.zero;
          Ctx.persist t.ctx ~sid:"hot:delete.persist" slot 8)
    with
    | Some () -> Output.Ok
    | None -> Output.Not_found

  let query t k =
    match
      with_exact t k ~found:(fun _slot leaf ->
          Value.strip
            (Tv.blob_value
               (Ctx.read_bytes t.ctx ~sid:"hot:read.value" (leaf + 16) 8)))
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

let make ?(cfg = buggy_cfg) () : Witcher.Store_intf.instance =
  let module M = Make (struct let cfg = cfg end) in
  (module M)

let buggy () = make ~cfg:buggy_cfg ()
let fixed () = make ~cfg:fixed_cfg ()
