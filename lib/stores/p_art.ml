(* P-ART — the RECIPE conversion of the Adaptive Radix Tree (paper row
   "P-ART", bugs 26-27). Interior nodes keep an explicit entry count and
   parallel key/child arrays; readers scan entries below the count, so
   the count is the guardian of every entry (N4.cpp / N16.cpp in the
   original).

   Seeded defect ([count_atomic], bugs 26-27, C-A "atomicity between
   metadata and key-value"): appending an entry bumps the count in the
   same epoch as the entry stores, with one trailing fence — the count
   can persist while the entry does not, so readers chase a garbage
   (null or stale) child. Two code paths carry the bug, matching the two
   paper sites: the small-node append (N4) and the large-node append
   (N16, used after growth).

   The fixed variant persists the entry, fences, and only then bumps and
   persists the count. *)

open Nvm
module Op = Witcher.Op
module Output = Witcher.Output

type cfg = { count_atomic : bool }

let buggy_cfg = { count_atomic = true }
let fixed_cfg = { count_atomic = false }

let bits = 4
let levels = 4
let key_mask = (1 lsl (bits * levels)) - 1
let val_len = 8

(* node: type(8) | count(8) | keys (16 x 1B) | children (16 x 8B) *)
let n_type = 0
let n_count = 8
let n_keys = 16
let n_children = 32
let node_cap_small = 4
let node_cap_big = 16
let node_len = n_children + (16 * 8)
let leaf_len = 16

module Make (C : sig val cfg : cfg end) = struct
  let name = "p-art"
  let pool_size = 8 * 1024 * 1024
  let supports_scan = false

  let cfg = C.cfg

  type t = {
    ctx : Ctx.t;
    pool : Pmdk.Pool.t;
  }

  let nibble k level = (k lsr (bits * (levels - 1 - level))) land 15

  let alloc_node t ~cap =
    let node = Pmdk.Alloc.zalloc t.pool node_len in
    Ctx.write_u64 t.ctx ~sid:"part:mknode.type" (node + n_type) (Tv.const cap);
    Ctx.persist t.ctx ~sid:"part:mknode.persist" node 16;
    node

  let create ctx =
    let pool = Pmdk.Pool.create ctx ~root_size:16 in
    let t = { ctx; pool } in
    let root = alloc_node t ~cap:node_cap_big in
    let r = Pmdk.Pool.root pool in
    Ctx.write_u64 ctx ~sid:"part:create.root" r (Tv.const root);
    Ctx.persist ctx ~sid:"part:create.root_persist" r 8;
    t

  let open_ ctx =
    let pool = Pmdk.Pool.open_ ctx in
    let t = { ctx; pool } in
    let r = Pmdk.Pool.root pool in
    if not (Tv.to_bool (Ctx.read_u64 ctx ~sid:"part:open.root" r)) then begin
      let root = alloc_node t ~cap:node_cap_big in
      Ctx.write_u64 ctx ~sid:"part:recover.root" r (Tv.const root);
      Ctx.persist ctx ~sid:"part:recover.root_persist" r 8
    end;
    t

  let root_node t =
    Tv.value (Ctx.read_ptr t.ctx ~sid:"part:root" (Pmdk.Pool.root t.pool))

  let count_of t node = Ctx.read_u64 t.ctx ~sid:"part:node.count" (node + n_count)
  let cap_of t node =
    Tv.value (Ctx.read_u64 t.ctx ~sid:"part:node.type" (node + n_type))

  let key_addr node i = node + n_keys + i
  let child_addr node i = node + n_children + (i * 8)

  (* Scan entries below count for [nib]: the count read guards every
     entry read (PO3: entries must persist before the count). Entries
     whose child is still the null sentinel (an interrupted append) are
     skipped, not treated as terminal. *)
  let find_entry t node nib =
    let cnt = count_of t node in
    let n = min (Tv.value cnt) 16 in
    Ctx.with_guard t.ctx (Tv.taint cnt) (fun () ->
        let rec go i =
          if i >= n then None
          else begin
            let kb = Ctx.read_u8 t.ctx ~sid:"part:find.keybyte" (key_addr node i) in
            match
              Ctx.if_ t.ctx (Tv.eq kb (Tv.const nib))
                ~then_:(fun () ->
                    let ch = Ctx.read_ptr t.ctx ~sid:"part:find.child" (child_addr node i) in
                    if Tv.value ch = 0 then None
                    else Some (child_addr node i, Tv.value ch))
                ~else_:(fun () -> None)
            with
            | Some _ as r -> r
            | None -> go (i + 1)
          end
        in
        go 0)

  (* Append (nib -> child): entry stores, then the count bump. The buggy
     shape persists everything behind one fence. *)
  let append_child t node nib child ~sid_prefix =
    let cnt = count_of t node in
    let i = Tv.value cnt in
    Ctx.write_u64 t.ctx ~sid:(sid_prefix ^ ".child") (child_addr node i)
      (Tv.const child);
    Ctx.write_u8 t.ctx ~sid:(sid_prefix ^ ".keybyte") (key_addr node i)
      (Tv.const nib);
    if cfg.count_atomic then begin
      (* BUG (bugs 26-27, C-A): entry and count race to NVM. *)
      Ctx.write_u64 t.ctx ~sid:(sid_prefix ^ ".count") (node + n_count)
        (Tv.add cnt Tv.one);
      Ctx.flush_range t.ctx ~sid:(sid_prefix ^ ".flush") node node_len;
      Ctx.fence t.ctx ~sid:(sid_prefix ^ ".fence")
    end
    else begin
      Ctx.persist t.ctx ~sid:(sid_prefix ^ ".entry_persist") (child_addr node i) 8;
      Ctx.persist t.ctx ~sid:(sid_prefix ^ ".key_persist") (key_addr node i) 1;
      Ctx.write_u64 t.ctx ~sid:(sid_prefix ^ ".count") (node + n_count)
        (Tv.add cnt Tv.one);
      Ctx.persist t.ctx ~sid:(sid_prefix ^ ".count_persist") (node + n_count) 8
    end

  (* Grow a full small node into a big one (always ordered; P-ART's bug
     is in the append, not the growth). *)
  let grow t node parent_slot =
    let big = alloc_node t ~cap:node_cap_big in
    let n = min (Tv.value (count_of t node)) 16 in
    for i = 0 to n - 1 do
      let kb = Ctx.read_u8 t.ctx ~sid:"part:grow.keybyte" (key_addr node i) in
      let ch = Ctx.read_u64 t.ctx ~sid:"part:grow.child" (child_addr node i) in
      Ctx.write_u8 t.ctx ~sid:"part:grow.copy_key" (key_addr big i) kb;
      Ctx.write_u64 t.ctx ~sid:"part:grow.copy_child" (child_addr big i) ch
    done;
    Ctx.write_u64 t.ctx ~sid:"part:grow.count" (big + n_count) (Tv.const n);
    Ctx.persist t.ctx ~sid:"part:grow.persist" big node_len;
    Ctx.write_u64 t.ctx ~sid:"part:grow.swap" parent_slot (Tv.const big);
    Ctx.persist t.ctx ~sid:"part:grow.swap_persist" parent_slot 8;
    big

  (* For the write path: an entry for [nib] whose child is still null (an
     interrupted link or a delete) is reused rather than duplicated. *)
  let find_null_entry t node nib =
    let cnt = min (Tv.value (count_of t node)) 16 in
    let rec go i =
      if i >= cnt then None
      else if
        Tv.value (Ctx.read_u8 t.ctx ~sid:"part:reuse.keybyte" (key_addr node i))
        = nib
        && Tv.value
             (Ctx.read_u64 t.ctx ~sid:"part:reuse.child" (child_addr node i))
           = 0
      then Some (child_addr node i)
      else go (i + 1)
    in
    go 0

  let slot_for t k ~make =
    let k = k land key_mask in
    let rec go node parent_slot level =
      let nib = nibble k level in
      match find_entry t node nib with
      | Some (slot, child) ->
        if level = levels - 1 then Some slot
        else go child slot (level + 1)
      | None ->
        if not make then None
        else begin
          match find_null_entry t node nib with
          | Some slot ->
            if level = levels - 1 then Some slot
            else begin
              let fresh = alloc_node t ~cap:node_cap_small in
              Ctx.write_u64 t.ctx ~sid:"part:reuse.link" slot (Tv.const fresh);
              Ctx.persist t.ctx ~sid:"part:reuse.link_persist" slot 8;
              go fresh slot (level + 1)
            end
          | None ->
          let cnt = Tv.value (count_of t node) in
          let cap =
            let c = cap_of t node in
            if c = node_cap_small then node_cap_small else node_cap_big
          in
          let node, cap =
            if cnt >= cap then (grow t node parent_slot, node_cap_big)
            else (node, cap)
          in
          let sid_prefix =
            if cap = node_cap_small then "part:n4app" else "part:n16app"
          in
          let i = Tv.value (count_of t node) in
          if level = levels - 1 then begin
            (* leaf level: append a null child; the caller links the leaf *)
            append_child t node nib 0 ~sid_prefix;
            Some (child_addr node i)
          end
          else begin
            let fresh = alloc_node t ~cap:node_cap_small in
            append_child t node nib fresh ~sid_prefix;
            go fresh (child_addr node i) (level + 1)
          end
        end
    in
    go (root_node t) (Pmdk.Pool.root t.pool) 0

  let with_leaf t k ~found =
    match slot_for t k ~make:false with
    | None -> None
    | Some slot ->
      let leaf = Tv.value (Ctx.read_ptr t.ctx ~sid:"part:leaf.ptr" slot) in
      if leaf = 0 then None
      else begin
        let key = Ctx.read_u64 t.ctx ~sid:"part:find.key" leaf in
        Ctx.if_ t.ctx (Tv.eq key (Tv.const (k land key_mask)))
          ~then_:(fun () -> Some (found slot leaf))
          ~else_:(fun () -> None)
      end

  let write_leaf t k v =
    let leaf = Pmdk.Alloc.alloc t.pool leaf_len in
    Ctx.write_u64 t.ctx ~sid:"part:leaf.key" leaf (Tv.const (k land key_mask));
    Ctx.write_bytes t.ctx ~sid:"part:leaf.value" (leaf + 8)
      (Tv.blob (Value.pad val_len v));
    Ctx.persist t.ctx ~sid:"part:leaf.persist" leaf leaf_len;
    leaf

  let insert t k v =
    match
      with_leaf t k ~found:(fun _slot leaf ->
          Ctx.write_bytes t.ctx ~sid:"part:insert.upsert" (leaf + 8)
            (Tv.blob (Value.pad val_len v));
          Ctx.persist t.ctx ~sid:"part:insert.upsert_persist" (leaf + 8) 8)
    with
    | Some () -> Output.Ok
    | None ->
      (match slot_for t k ~make:true with
       | None -> Output.Fail "unreachable"
       | Some slot ->
         let leaf = write_leaf t k v in
         Ctx.write_u64 t.ctx ~sid:"part:insert.link" slot (Tv.const leaf);
         if cfg.count_atomic then
           (* BUG (bugs 26-27, C-A): the entry's key byte and count are
              made durable by the append's node flush, but the key-value
              link itself is left to a bare fence — metadata and KV race. *)
           Ctx.fence t.ctx ~sid:"part:insert.link_fence_only"
         else
           Ctx.persist t.ctx ~sid:"part:insert.link_persist" slot 8;
         Output.Ok)

  let update t k v =
    match
      with_leaf t k ~found:(fun _slot leaf ->
          Ctx.write_bytes t.ctx ~sid:"part:update.value" (leaf + 8)
            (Tv.blob (Value.pad val_len v));
          Ctx.persist t.ctx ~sid:"part:update.persist" (leaf + 8) 8)
    with
    | Some () -> Output.Ok
    | None -> Output.Not_found

  let delete t k =
    match
      with_leaf t k ~found:(fun slot _leaf ->
          Ctx.write_u64 t.ctx ~sid:"part:delete.unlink" slot Tv.zero;
          Ctx.persist t.ctx ~sid:"part:delete.persist" slot 8)
    with
    | Some () -> Output.Ok
    | None -> Output.Not_found

  let query t k =
    match
      with_leaf t k ~found:(fun _slot leaf ->
          Value.strip
            (Tv.blob_value
               (Ctx.read_bytes t.ctx ~sid:"part:read.value" (leaf + 8) 8)))
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
