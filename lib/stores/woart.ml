(* WOART — Write-Optimal Adaptive Radix Tree (Lee et al., FAST '17; paper
   row "WOART", bug 2). Like WORT but with adaptive nodes: a small node
   holds up to four (nibble, child) entries and grows into a full
   16-fanout node when it overflows.

   Seeded defect:
   - [grow_order] (bug 2, C-A "atomicity in node split"): growing a
     node-4 into a node-16 publishes the new node in the parent *before*
     the node-16's contents are durable; a crash leaves the parent
     pointing at a half-initialized node, losing the whole subtree.

   The fixed variant persists the node-16 before the atomic parent swap
   (the old node-4 is left untouched, so a crash before the swap is a
   clean rollback). Entry insertion into a node-4 is guardian-ordered:
   the child pointer is persisted before the key byte that makes the
   entry visible. *)

open Nvm
module Op = Witcher.Op
module Output = Witcher.Output

type cfg = { grow_order : bool }

let buggy_cfg = { grow_order = true }
let fixed_cfg = { grow_order = false }

let bits = 4
let levels = 4
let fanout = 16
let key_mask = (1 lsl (bits * levels)) - 1
let val_len = 8

(* node4: type(8) | keybytes(8: 4 used, 0xff = empty) | 4 children *)
let n4_len = 16 + (4 * 8)
(* node16: type(8) | 16 children indexed by nibble *)
let n16_len = 8 + (fanout * 8)
let leaf_len = 16

let type_n4 = 4
let type_n16 = 16

module Make (C : sig val cfg : cfg end) = struct
  let name = "woart"
  let pool_size = 8 * 1024 * 1024
  let supports_scan = false

  let cfg = C.cfg

  type t = {
    ctx : Ctx.t;
    pool : Pmdk.Pool.t;
  }

  let nibble k level = (k lsr (bits * (levels - 1 - level))) land (fanout - 1)

  let node_type t node =
    Tv.value (Ctx.read_u64 t.ctx ~sid:"woart:node.type" node)

  let n4_keybyte_addr node i = node + 8 + i
  let n4_child_addr node i = node + 16 + (i * 8)
  let n16_child_addr node i = node + 8 + (i * 8)

  let alloc_n4 t =
    let node = Pmdk.Alloc.zalloc t.pool n4_len in
    Ctx.write_u64 t.ctx ~sid:"woart:mkn4.type" node (Tv.const type_n4);
    (* empty key bytes are 0xff *)
    Ctx.write_bytes t.ctx ~sid:"woart:mkn4.keys" (node + 8)
      (Tv.blob (String.make 8 '\xff'));
    Ctx.persist t.ctx ~sid:"woart:mkn4.persist" node 16;
    node

  let create ctx =
    let pool = Pmdk.Pool.create ctx ~root_size:16 in
    let t = { ctx; pool } in
    let root = alloc_n4 t in
    let r = Pmdk.Pool.root pool in
    Ctx.write_u64 ctx ~sid:"woart:create.root" r (Tv.const root);
    Ctx.persist ctx ~sid:"woart:create.root_persist" r 8;
    t

  let open_ ctx =
    let pool = Pmdk.Pool.open_ ctx in
    let t = { ctx; pool } in
    let r = Pmdk.Pool.root pool in
    if not (Tv.to_bool (Ctx.read_u64 ctx ~sid:"woart:open.root" r)) then begin
      let root = alloc_n4 t in
      Ctx.write_u64 ctx ~sid:"woart:recover.root" r (Tv.const root);
      Ctx.persist ctx ~sid:"woart:recover.root_persist" r 8
    end;
    t

  let root_node t =
    Tv.value (Ctx.read_ptr t.ctx ~sid:"woart:root" (Pmdk.Pool.root t.pool))

  (* Child slot for nibble [nib] in a node-4: scan the key bytes (guarded
     by each byte read). Returns the child slot address, or None. *)
  let n4_find t node nib =
    let rec go i =
      if i >= 4 then None
      else begin
        let kb = Ctx.read_u8 t.ctx ~sid:"woart:n4.keybyte" (n4_keybyte_addr node i) in
        Ctx.if_ t.ctx (Tv.eq kb (Tv.const nib))
          ~then_:(fun () -> Some (n4_child_addr node i))
          ~else_:(fun () -> go (i + 1))
      end
    in
    go 0

  let n4_free_slot t node =
    let rec go i =
      if i >= 4 then None
      else begin
        let kb = Ctx.read_u8 t.ctx ~sid:"woart:n4.probe" (n4_keybyte_addr node i) in
        if Tv.value kb = 0xff then Some i else go (i + 1)
      end
    in
    go 0

  (* Add (nib -> child) to a node-4 slot: child pointer first (durable),
     then the guardian key byte. *)
  let n4_add t node i nib child =
    Ctx.write_u64 t.ctx ~sid:"woart:n4add.child" (n4_child_addr node i)
      (Tv.const child);
    Ctx.persist t.ctx ~sid:"woart:n4add.child_persist" (n4_child_addr node i) 8;
    Ctx.write_u8 t.ctx ~sid:"woart:n4add.keybyte" (n4_keybyte_addr node i)
      (Tv.const nib);
    Ctx.persist t.ctx ~sid:"woart:n4add.keybyte_persist"
      (n4_keybyte_addr node i) 1

  (* Grow a full node-4 into a node-16 and swap it into [parent_slot]. *)
  let grow t node parent_slot =
    let n16 = Pmdk.Alloc.zalloc t.pool n16_len in
    Ctx.write_u64 t.ctx ~sid:"woart:grow.type" n16 (Tv.const type_n16);
    for i = 0 to 3 do
      let kb = Ctx.read_u8 t.ctx ~sid:"woart:grow.keybyte" (n4_keybyte_addr node i) in
      Ctx.when_ t.ctx (Tv.ne kb (Tv.const 0xff)) (fun () ->
          let child = Ctx.read_u64 t.ctx ~sid:"woart:grow.child" (n4_child_addr node i) in
          Ctx.write_u64 t.ctx ~sid:"woart:grow.copy"
            (n16_child_addr n16 (Tv.value kb)) child)
    done;
    if cfg.grow_order then
      (* BUG (bug 2, C-A): the parent is repointed while the node-16's
         entries may still be volatile. *)
      Ctx.fence t.ctx ~sid:"woart:grow.fence_only"
    else
      Ctx.persist t.ctx ~sid:"woart:grow.persist" n16 n16_len;
    Ctx.write_u64 t.ctx ~sid:"woart:grow.swap" parent_slot (Tv.const n16);
    Ctx.persist t.ctx ~sid:"woart:grow.swap_persist" parent_slot 8;
    n16

  (* Walk to the leaf slot for [k]. [make] allocates missing interior
     nodes (fresh node-4s) and grows full ones. *)
  let slot_for t k ~make =
    let k = k land key_mask in
    let rec go node parent_slot level =
      let nib = nibble k level in
      let ty = node_type t node in
      let slot =
        if ty = type_n16 then Some (n16_child_addr node nib)
        else
          match n4_find t node nib with
          | Some s -> Some s
          | None ->
            if not make then None
            else begin
              match n4_free_slot t node with
              | Some i ->
                (* Claim the key byte; the child slot still holds the null
                   sentinel, which every reader treats as absent, so the
                   claim is safe to persist before the child is linked. *)
                Ctx.write_u8 t.ctx ~sid:"woart:n4.claim"
                  (n4_keybyte_addr node i) (Tv.const nib);
                Ctx.persist t.ctx ~sid:"woart:n4.claim_persist"
                  (n4_keybyte_addr node i) 1;
                Some (n4_child_addr node i)
              | None ->
                let n16 = grow t node parent_slot in
                Some (n16_child_addr n16 nib)
            end
      in
      match slot with
      | None -> None
      | Some slot ->
        if level = levels - 1 then Some slot
        else begin
          let child = Tv.value (Ctx.read_ptr t.ctx ~sid:"woart:walk.child" slot) in
          if child <> 0 then go child slot (level + 1)
          else if not make then None
          else begin
            let fresh = alloc_n4 t in
            Ctx.write_u64 t.ctx ~sid:"woart:link.child" slot (Tv.const fresh);
            Ctx.persist t.ctx ~sid:"woart:link.persist" slot 8;
            go fresh slot (level + 1)
          end
        end
    in
    go (root_node t) (Pmdk.Pool.root t.pool) 0

  let with_leaf t k ~found =
    match slot_for t k ~make:false with
    | None -> None
    | Some slot ->
      let leaf = Tv.value (Ctx.read_ptr t.ctx ~sid:"woart:leaf.ptr" slot) in
      if leaf = 0 then None
      else begin
        let key = Ctx.read_u64 t.ctx ~sid:"woart:find.key" leaf in
        Ctx.if_ t.ctx (Tv.eq key (Tv.const (k land key_mask)))
          ~then_:(fun () -> Some (found slot leaf))
          ~else_:(fun () -> None)
      end

  let insert t k v =
    match
      with_leaf t k ~found:(fun _slot leaf ->
          Ctx.write_bytes t.ctx ~sid:"woart:insert.upsert" (leaf + 8)
            (Tv.blob (Value.pad val_len v));
          Ctx.persist t.ctx ~sid:"woart:insert.upsert_persist" (leaf + 8) 8)
    with
    | Some () -> Output.Ok
    | None ->
      (match slot_for t k ~make:true with
       | None -> Output.Fail "unreachable"
       | Some slot ->
         let leaf = Pmdk.Alloc.alloc t.pool leaf_len in
         Ctx.write_u64 t.ctx ~sid:"woart:leaf.key" leaf
           (Tv.const (k land key_mask));
         Ctx.write_bytes t.ctx ~sid:"woart:leaf.value" (leaf + 8)
           (Tv.blob (Value.pad val_len v));
         Ctx.persist t.ctx ~sid:"woart:leaf.persist" leaf leaf_len;
         Ctx.write_u64 t.ctx ~sid:"woart:insert.link" slot (Tv.const leaf);
         Ctx.persist t.ctx ~sid:"woart:insert.link_persist" slot 8;
         Output.Ok)

  let update t k v =
    match
      with_leaf t k ~found:(fun _slot leaf ->
          Ctx.write_bytes t.ctx ~sid:"woart:update.value" (leaf + 8)
            (Tv.blob (Value.pad val_len v));
          Ctx.persist t.ctx ~sid:"woart:update.persist" (leaf + 8) 8)
    with
    | Some () -> Output.Ok
    | None -> Output.Not_found

  let delete t k =
    match
      with_leaf t k ~found:(fun slot _leaf ->
          Ctx.write_u64 t.ctx ~sid:"woart:delete.unlink" slot Tv.zero;
          Ctx.persist t.ctx ~sid:"woart:delete.persist" slot 8)
    with
    | Some () -> Output.Ok
    | None -> Output.Not_found

  let query t k =
    match
      with_leaf t k ~found:(fun _slot leaf ->
          Value.strip
            (Tv.blob_value
               (Ctx.read_bytes t.ctx ~sid:"woart:read.value" (leaf + 8) 8)))
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
