(* P-Masstree — the RECIPE conversion of Masstree (paper row "P-Masstree",
   bug 39). We keep the Masstree leaf discipline that matters here: nodes
   hold an explicit count guarding *unsorted* entries. Readers scan
   entries below the count (the newest match wins, null value pointers
   are tombstones), so every mutation is a guardian-ordered append:
   persist the entry, then bump the count. Inner nodes are unsorted too —
   routing picks the entry with the largest key <= k — so installing a
   separator is also an append.

   Splits are copy-on-write: live entries are distributed into two fresh
   leaves; the separator/upper-leaf pair is appended to the parent first
   (old leaf still serves both halves), then the parent's child pointer
   swings atomically to the lower leaf.

   Seeded defect ([split_atomic], bug 39, C-A "atomicity in node
   splitting"): the buggy split compacts the old leaf *in place* and
   truncates its count in the same unfenced breath as the unpersisted new
   leaf — a crash loses the moved upper half or tears the compaction. *)

open Nvm
module Op = Witcher.Op
module Output = Witcher.Output

type cfg = { split_atomic : bool }

let buggy_cfg = { split_atomic = true }
let fixed_cfg = { split_atomic = false }

let cap = 14
let val_len = 8

(* node: is_leaf(8) | count(8) | leftmost(8) | pad(8) | entries cap x 16 *)
let n_is_leaf = 0
let n_count = 8
let n_leftmost = 16
let n_entries = 32
let entry_len = 16
let node_len = n_entries + (cap * entry_len)

module Make (C : sig val cfg : cfg end) = struct
  let name = "p-masstree"
  let pool_size = 16 * 1024 * 1024
  let supports_scan = false

  let cfg = C.cfg

  type t = {
    ctx : Ctx.t;
    pool : Pmdk.Pool.t;
  }

  let entry_addr node i = node + n_entries + (i * entry_len)

  let is_leaf t n =
    Tv.to_bool (Ctx.read_u64 t.ctx ~sid:"mt:node.is_leaf" (n + n_is_leaf))

  let count_of t n = Ctx.read_u64 t.ctx ~sid:"mt:node.count" (n + n_count)

  let read_key t ~sid n i = Ctx.read_u64 t.ctx ~sid (entry_addr n i)
  let read_val t ~sid n i = Ctx.read_u64 t.ctx ~sid (entry_addr n i + 8)

  let alloc_node t ~leaf =
    let n = Pmdk.Alloc.zalloc t.pool node_len in
    Ctx.write_u64 t.ctx ~sid:"mt:mknode.is_leaf" (n + n_is_leaf)
      (Tv.const (if leaf then 1 else 0));
    Ctx.persist t.ctx ~sid:"mt:mknode.persist" n 32;
    n

  let root_addr t = Pmdk.Pool.root t.pool

  let create ctx =
    let pool = Pmdk.Pool.create ctx ~root_size:16 in
    let t = { ctx; pool } in
    let leaf = alloc_node t ~leaf:true in
    Ctx.write_u64 ctx ~sid:"mt:create.root" (root_addr t) (Tv.const leaf);
    Ctx.persist ctx ~sid:"mt:create.root_persist" (root_addr t) 8;
    t

  let open_ ctx =
    let pool = Pmdk.Pool.open_ ctx in
    let t = { ctx; pool } in
    if not (Tv.to_bool (Ctx.read_u64 ctx ~sid:"mt:open.root" (root_addr t)))
    then begin
      let leaf = alloc_node t ~leaf:true in
      Ctx.write_u64 ctx ~sid:"mt:recover.root" (root_addr t) (Tv.const leaf);
      Ctx.persist ctx ~sid:"mt:recover.root_persist" (root_addr t) 8
    end;
    t

  (* Inner routing over unsorted separators: the entry with the largest
     key <= k wins; the count read guards the scan. *)
  let child_for t n k =
    let cnt = count_of t n in
    let m = min (Tv.value cnt) cap in
    Ctx.with_guard t.ctx (Tv.taint cnt) (fun () ->
        let lm =
          Tv.value (Ctx.read_ptr t.ctx ~sid:"mt:descend.leftmost" (n + n_leftmost))
        in
        let rec go i best_key best =
          if i >= m then best
          else begin
            let key = Tv.value (read_key t ~sid:"mt:descend.key" n i) in
            if key <= k && key >= best_key then
              go (i + 1) key
                (Tv.value (read_val t ~sid:"mt:descend.child" n i))
            else go (i + 1) best_key best
          end
        in
        go 0 min_int lm)

  (* Path entries: (node, slot address of the pointer we followed). *)
  let find_leaf t k =
    let rec go n slot path =
      if is_leaf t n then (n, slot, path)
      else begin
        let child = child_for t n k in
        (* locate the slot we came through so splits can swing it *)
        let cslot =
          let m = min (Tv.value (count_of t n)) cap in
          let rec scan i =
            if i >= m then n + n_leftmost
            else if Tv.value (read_val t ~sid:"mt:path.child" n i) = child then
              entry_addr n i + 8
            else scan (i + 1)
          in
          scan 0
        in
        go child cslot ((n, cslot) :: path)
      end
    in
    go (Tv.value (Ctx.read_ptr t.ctx ~sid:"mt:root" (root_addr t)))
      (root_addr t) []

  (* Scan a leaf's unsorted entries; the newest match wins. *)
  let leaf_find t leaf k =
    let cnt = count_of t leaf in
    let m = min (Tv.value cnt) cap in
    Ctx.with_guard t.ctx (Tv.taint cnt) (fun () ->
        let rec go i best =
          if i >= m then best
          else begin
            let key = read_key t ~sid:"mt:find.key" leaf i in
            let best = if Tv.value key = k then Some i else best in
            go (i + 1) best
          end
        in
        go 0 None)

  let value_blob t leaf i =
    let p =
      Tv.value (Ctx.read_ptr t.ctx ~sid:"mt:read.vptr" (entry_addr leaf i + 8))
    in
    if p = 0 then None
    else
      Some
        (Value.strip
           (Tv.blob_value (Ctx.read_bytes t.ctx ~sid:"mt:read.value" (p + 8) 8)))

  let write_blob t v =
    let b = Pmdk.Alloc.alloc t.pool 16 in
    Ctx.write_u64 t.ctx ~sid:"mt:blob.len" b (Tv.const (String.length v));
    Ctx.write_bytes t.ctx ~sid:"mt:blob.bytes" (b + 8)
      (Tv.blob (Value.pad val_len v));
    Ctx.persist t.ctx ~sid:"mt:blob.persist" b 16;
    b

  (* Guardian-ordered append: entry persisted, then the count. *)
  let append_entry t node ~k ~ptr ~sid_prefix =
    let cnt = count_of t node in
    let i = Tv.value cnt in
    assert (i < cap);
    Ctx.write_u64 t.ctx ~sid:(sid_prefix ^ ".key") (entry_addr node i)
      (Tv.const k);
    Ctx.write_u64 t.ctx ~sid:(sid_prefix ^ ".vptr") (entry_addr node i + 8)
      (Tv.const ptr);
    Ctx.persist t.ctx ~sid:(sid_prefix ^ ".entry_persist") (entry_addr node i)
      entry_len;
    Ctx.write_u64 t.ctx ~sid:(sid_prefix ^ ".count") (node + n_count)
      (Tv.add cnt Tv.one);
    Ctx.persist t.ctx ~sid:(sid_prefix ^ ".count_persist") (node + n_count) 8

  (* Live (key, value-ptr) pairs of a leaf: newest wins, tombstones drop. *)
  let live_entries t leaf =
    let cnt = Tv.value (count_of t leaf) in
    let live = ref [] in
    for i = cnt - 1 downto 0 do
      let key = Tv.value (read_key t ~sid:"mt:split.key" leaf i) in
      let p = Tv.value (read_val t ~sid:"mt:split.vptr" leaf i) in
      if not (List.mem_assoc key !live) then live := (key, p) :: !live
    done;
    List.sort compare (List.filter (fun (_, p) -> p <> 0) !live)

  let fill_leaf t leaf entries =
    List.iteri
      (fun i (k, p) ->
         Ctx.write_u64 t.ctx ~sid:"mt:split.fill_key" (entry_addr leaf i)
           (Tv.const k);
         Ctx.write_u64 t.ctx ~sid:"mt:split.fill_vptr" (entry_addr leaf i + 8)
           (Tv.const p))
      entries;
    Ctx.write_u64 t.ctx ~sid:"mt:split.fill_count" (leaf + n_count)
      (Tv.const (List.length entries))

  (* Split the root of [path] handling: append (sep -> upper) into the
     parent, splitting ancestors as needed; returns unit. *)
  let rec install_sep t path ~sep ~upper =
    match path with
    | (parent, _) :: rest ->
      if Tv.value (count_of t parent) >= cap then begin
        split_inner t parent rest;
        (* after an inner split, re-route from the closest ancestor *)
        let target =
          match rest with
          | _ ->
            (* re-descend from the root to the inner node for [sep] *)
            let rec go n =
              if is_leaf t n then None
              else begin
                let child = child_for t n sep in
                if is_leaf t child then Some n
                else go child
              end
            in
            go (Tv.value (Ctx.read_ptr t.ctx ~sid:"mt:resep.root" (root_addr t)))
        in
        (match target with
         | Some p -> append_entry t p ~k:sep ~ptr:upper ~sid_prefix:"mt:sep"
         | None -> ())
      end
      else append_entry t parent ~k:sep ~ptr:upper ~sid_prefix:"mt:sep"
    | [] -> ()

  (* Copy-on-write inner split: entries with key < sep stay, the rest move
     to a fresh inner node appended to the grandparent. *)
  and split_inner t node path =
    let cnt = Tv.value (count_of t node) in
    let entries =
      List.init cnt (fun i ->
          ( Tv.value (read_key t ~sid:"mt:isplit.rdk" node i),
            Tv.value (read_val t ~sid:"mt:isplit.rdv" node i) ))
      |> List.sort compare
    in
    let mid = cnt / 2 in
    let sep, mid_child = List.nth entries mid in
    let lower = List.filteri (fun i _ -> i < mid) entries in
    let upper = List.filteri (fun i _ -> i > mid) entries in
    let nlow = alloc_node t ~leaf:false in
    let nup = alloc_node t ~leaf:false in
    let lm = Tv.value (Ctx.read_ptr t.ctx ~sid:"mt:isplit.lm" (node + n_leftmost)) in
    Ctx.write_u64 t.ctx ~sid:"mt:isplit.low_lm" (nlow + n_leftmost) (Tv.const lm);
    fill_leaf t nlow lower;
    Ctx.write_u64 t.ctx ~sid:"mt:isplit.up_lm" (nup + n_leftmost)
      (Tv.const mid_child);
    fill_leaf t nup upper;
    if not cfg.split_atomic then begin
      Ctx.persist t.ctx ~sid:"mt:isplit.low_persist" nlow node_len;
      Ctx.persist t.ctx ~sid:"mt:isplit.up_persist" nup node_len
    end;
    publish_split t node path ~sep ~lower:nlow ~upper:nup

  (* Publish a split: install (sep -> upper) in the parent, then swing the
     slot that pointed at [node] to [lower]. For the root, build a fresh
     root and swap the root pointer. *)
  and publish_split t node path ~sep ~lower ~upper =
    match path with
    | [] ->
      let root = alloc_node t ~leaf:false in
      Ctx.write_u64 t.ctx ~sid:"mt:rootsplit.leftmost" (root + n_leftmost)
        (Tv.const lower);
      Ctx.write_u64 t.ctx ~sid:"mt:rootsplit.key" (entry_addr root 0)
        (Tv.const sep);
      Ctx.write_u64 t.ctx ~sid:"mt:rootsplit.child" (entry_addr root 0 + 8)
        (Tv.const upper);
      Ctx.write_u64 t.ctx ~sid:"mt:rootsplit.count" (root + n_count) Tv.one;
      if not cfg.split_atomic then
        Ctx.persist t.ctx ~sid:"mt:rootsplit.persist" root node_len;
      Ctx.write_u64 t.ctx ~sid:"mt:rootsplit.swap" (root_addr t) (Tv.const root);
      Ctx.persist t.ctx ~sid:"mt:rootsplit.swap_persist" (root_addr t) 8;
      ignore node
    | (_parent, slot) :: _ ->
      install_sep t path ~sep ~upper;
      Ctx.write_u64 t.ctx ~sid:"mt:split.swing" slot (Tv.const lower);
      Ctx.persist t.ctx ~sid:"mt:split.swing_persist" slot 8

  (* Leaf split. Fixed: copy-on-write into two fresh leaves. Buggy
     (bug 39): in-place compaction with an early, unordered truncate. *)
  and split_leaf t leaf path =
    let live = live_entries t leaf in
    (* Only redistribute keys the parent still routes here: after an
       interrupted earlier split, keys already routed to the published
       upper leaf must not be resurrected from this node's stale copies. *)
    let live =
      if cfg.split_atomic then live
      else
        List.filter
          (fun (k, _) ->
             let l, _, _ = find_leaf t k in
             l = leaf)
          live
    in
    let m = List.length live in
    let lower = List.filteri (fun i _ -> i < (m + 1) / 2) live in
    let upper = List.filteri (fun i _ -> i >= (m + 1) / 2) live in
    if cfg.split_atomic then begin
      (* BUG (bug 39, C-A): new leaf unpersisted, old leaf compacted and
         truncated in place, all behind one trailing fence. *)
      let nleaf = alloc_node t ~leaf:true in
      fill_leaf t nleaf upper;
      (match upper, path with
       | (sep, _) :: _, (_ :: _) -> install_sep t path ~sep ~upper:nleaf
       | (sep, _) :: _, [] ->
         (* root leaf: build a new root — unpersisted before the swap,
            part of the same broken split *)
         let root = alloc_node t ~leaf:false in
         Ctx.write_u64 t.ctx ~sid:"mt:rootsplit.leftmost" (root + n_leftmost)
           (Tv.const leaf);
         Ctx.write_u64 t.ctx ~sid:"mt:rootsplit.key" (entry_addr root 0)
           (Tv.const sep);
         Ctx.write_u64 t.ctx ~sid:"mt:rootsplit.child" (entry_addr root 0 + 8)
           (Tv.const nleaf);
         Ctx.write_u64 t.ctx ~sid:"mt:rootsplit.count" (root + n_count) Tv.one;
         Ctx.write_u64 t.ctx ~sid:"mt:rootsplit.swap" (root_addr t)
           (Tv.const root);
         Ctx.persist t.ctx ~sid:"mt:rootsplit.swap_persist" (root_addr t) 8
       | [], _ -> ());
      List.iteri
        (fun i (k, p) ->
           Ctx.write_u64 t.ctx ~sid:"mt:split.compact_key" (entry_addr leaf i)
             (Tv.const k);
           Ctx.write_u64 t.ctx ~sid:"mt:split.compact_vptr"
             (entry_addr leaf i + 8) (Tv.const p))
        lower;
      Ctx.write_u64 t.ctx ~sid:"mt:split.truncate" (leaf + n_count)
        (Tv.const (List.length lower));
      Ctx.fence t.ctx ~sid:"mt:split.fence_only"
    end
    else begin
      match upper with
      | [] ->
        (* everything is dead or tiny: compact copy-on-write *)
        let nleaf = alloc_node t ~leaf:true in
        fill_leaf t nleaf lower;
        Ctx.persist t.ctx ~sid:"mt:compact.persist" nleaf node_len;
        publish_swing t leaf path nleaf
      | (sep, _) :: _ ->
        let nlow = alloc_node t ~leaf:true in
        let nup = alloc_node t ~leaf:true in
        fill_leaf t nlow lower;
        fill_leaf t nup upper;
        Ctx.persist t.ctx ~sid:"mt:split.low_persist" nlow node_len;
        Ctx.persist t.ctx ~sid:"mt:split.up_persist" nup node_len;
        publish_split t leaf path ~sep ~lower:nlow ~upper:nup
    end

  and publish_swing t _old path nleaf =
    match path with
    | [] ->
      Ctx.write_u64 t.ctx ~sid:"mt:compact.swap" (root_addr t) (Tv.const nleaf);
      Ctx.persist t.ctx ~sid:"mt:compact.swap_persist" (root_addr t) 8
    | (_parent, slot) :: _ ->
      Ctx.write_u64 t.ctx ~sid:"mt:compact.swing" slot (Tv.const nleaf);
      Ctx.persist t.ctx ~sid:"mt:compact.swing_persist" slot 8

  let insert t k v =
    let leaf, _slot, path = find_leaf t k in
    match leaf_find t leaf k with
    | Some i when Option.is_some (value_blob t leaf i) ->
      let b = write_blob t v in
      Ctx.write_u64 t.ctx ~sid:"mt:insert.upsert" (entry_addr leaf i + 8)
        (Tv.const b);
      Ctx.persist t.ctx ~sid:"mt:insert.upsert_persist" (entry_addr leaf i + 8) 8;
      Output.Ok
    | _ ->
      (* A split's swing can be superseded when the parent itself split;
         retry until the target leaf has room. *)
      let rec ensure leaf path tries =
        if Tv.value (count_of t leaf) < cap || tries > 4 then leaf
        else begin
          split_leaf t leaf path;
          let leaf', _, path' = find_leaf t k in
          ensure leaf' path' (tries + 1)
        end
      in
      let leaf = ensure leaf path 0 in
      if Tv.value (count_of t leaf) >= cap then Output.Fail "full"
      else begin
        let b = write_blob t v in
        append_entry t leaf ~k ~ptr:b ~sid_prefix:"mt:insert";
        Output.Ok
      end

  let update t k v =
    let leaf, _, _ = find_leaf t k in
    match leaf_find t leaf k with
    | Some i when Option.is_some (value_blob t leaf i) ->
      let b = write_blob t v in
      Ctx.write_u64 t.ctx ~sid:"mt:update.vptr" (entry_addr leaf i + 8)
        (Tv.const b);
      Ctx.persist t.ctx ~sid:"mt:update.persist" (entry_addr leaf i + 8) 8;
      Output.Ok
    | _ -> Output.Not_found

  let delete t k =
    let leaf, _, _ = find_leaf t k in
    match leaf_find t leaf k with
    | Some i when Option.is_some (value_blob t leaf i) ->
      Ctx.write_u64 t.ctx ~sid:"mt:delete.tombstone" (entry_addr leaf i + 8)
        Tv.zero;
      Ctx.persist t.ctx ~sid:"mt:delete.persist" (entry_addr leaf i + 8) 8;
      Output.Ok
    | _ -> Output.Not_found

  let query t k =
    let leaf, _, _ = find_leaf t k in
    match leaf_find t leaf k with
    | Some i ->
      (match value_blob t leaf i with
       | Some v -> Output.Found v
       | None -> Output.Not_found)
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
