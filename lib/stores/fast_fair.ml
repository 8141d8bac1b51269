(* FAST-FAIR persistent B+tree (Hwang et al., FAST '18; paper rows
   "Fast Fair", bugs 3-6). The design's hallmark is *failure-atomic
   shifting*: in-node inserts and deletes move whole 16-byte entries with
   single atomic stores, leaving at worst a transient duplicate that
   readers tolerate, so no logging is needed. Leaves carry a right-sibling
   pointer; a reader that misses a key at a just-split leaf follows the
   sibling chain — the "inconsistency tolerable" design that makes naive
   bug detectors report false positives (§7.1) and that output equivalence
   checking correctly accepts.

   Node layout (16-aligned):
     +0  is_leaf   +8  nentries region is implicit (null-terminated)
     +16 sibling   +24 leftmost child (inner nodes)
     +32 entries: (max_entries + 1) x 16 bytes [key:8 | ptr:8], ptr = 0
         terminates the array.
   Leaf entry ptr -> value blob [len:8 | bytes:16].

   Seeded defects:
   - [insert_noflush] (bug 3, C-O): the in-leaf insert omits the flush of
     the entry region; the new entry can stay volatile across later
     durable operations and vanish on crash.
   - [delete_tear]    (bug 4, C-A): the shift-left after a delete moves
     key and pointer with two separate 8-byte stores; a crash between
     them permanently binds a key to its neighbour's value — a partial
     inconsistency the reader never recovers.
   - [split_order]    (bug 5, C-A): node split publishes the new node (in
     the parent / as the new root) before the node's contents are
     durable; resuming can dereference a garbage pointer and crash, the
     "root connects to a sibling" illegal state of §7.2.
   - [merge_order]    (bug 6, C-A): the empty-leaf merge unlinks the right
     sibling from the parent before the borrowed entries are durable,
     losing its keys. *)

open Nvm
module Op = Witcher.Op
module Output = Witcher.Output

type cfg = {
  insert_noflush : bool;
  delete_tear : bool;
  split_order : bool;
  merge_order : bool;
}

let buggy_cfg =
  { insert_noflush = true; delete_tear = true; split_order = true;
    merge_order = true }

let fixed_cfg =
  { insert_noflush = false; delete_tear = false; split_order = false;
    merge_order = false }

let max_entries = 8
let n_is_leaf = 0
let n_sibling = 16
let n_leftmost = 24
let n_entries = 32
let entry_len = 16
let node_len = n_entries + ((max_entries + 1) * entry_len)

let blob_len = 24  (* len:8 | bytes:16 *)
let val_max = 16

module Make (C : sig val cfg : cfg end) = struct
  let name = "fast-fair"
  let pool_size = 8 * 1024 * 1024
  let supports_scan = true

  let cfg = C.cfg

  type t = {
    ctx : Ctx.t;
    pool : Pmdk.Pool.t;
  }

  let entry_addr node i = node + n_entries + (i * entry_len)

  let read_ptr t ~sid node i =
    Ctx.read_u64 t.ctx ~sid (entry_addr node i + 8)
  let read_key t ~sid node i = Ctx.read_u64 t.ctx ~sid (entry_addr node i)

  (* One atomic 16-byte entry store (the node is 16-aligned). *)
  let write_entry t ~sid node i ~key ~ptr =
    let b = Bytes.create entry_len in
    Bytes.set_int64_le b 0 (Int64.of_int key);
    Bytes.set_int64_le b 8 (Int64.of_int ptr);
    Ctx.write_bytes t.ctx ~sid (entry_addr node i) (Tv.blob (Bytes.to_string b))

  (* The torn variant: two separate 8-byte stores (bug 4's shape). *)
  let write_entry_torn t ~sid node i ~key ~ptr =
    Ctx.write_u64 t.ctx ~sid:(sid ^ ".key") (entry_addr node i) (Tv.const key);
    Ctx.write_u64 t.ctx ~sid:(sid ^ ".ptr") (entry_addr node i + 8) (Tv.const ptr)

  let is_leaf t node =
    Tv.to_bool (Ctx.read_u64 t.ctx ~sid:"ff:node.is_leaf" (node + n_is_leaf))

  let sibling t node =
    Tv.value (Ctx.read_ptr t.ctx ~sid:"ff:node.sibling" (node + n_sibling))

  (* Number of live entries: scan to the null pointer. *)
  let count_entries t node =
    let rec go i =
      if i > max_entries then i
      else if Tv.to_bool (read_ptr t ~sid:"ff:count.ptr" node i) then go (i + 1)
      else i
    in
    go 0

  let alloc_node t ~leaf =
    let node = Pmdk.Alloc.zalloc t.pool node_len in
    Ctx.write_u64 t.ctx ~sid:"ff:mknode.is_leaf" (node + n_is_leaf)
      (Tv.const (if leaf then 1 else 0));
    Ctx.persist t.ctx ~sid:"ff:mknode.persist" node 32;
    node

  let root_addr t = Pmdk.Pool.root t.pool

  let read_root t =
    Tv.value (Ctx.read_ptr t.ctx ~sid:"ff:root" (root_addr t))

  let set_root t node ~persist_first ~sid =
    if persist_first then
      Ctx.persist t.ctx ~sid:(sid ^ ".node_persist") node node_len;
    Ctx.write_u64 t.ctx ~sid:(sid ^ ".swap") (root_addr t) (Tv.const node);
    Ctx.persist t.ctx ~sid:(sid ^ ".swap_persist") (root_addr t) 8

  let create ctx =
    let pool = Pmdk.Pool.create ctx ~root_size:16 in
    let t = { ctx; pool } in
    let leaf = alloc_node t ~leaf:true in
    set_root t leaf ~persist_first:true ~sid:"ff:create";
    t

  (* Recovery for interrupted splits (the paper's fix strategy for bug 5:
     "inconsistency-recoverable design"). A crash between a split's
     sibling-link and its truncate leaves a leaf that overlaps its right
     sibling; the stale left copies would diverge from the authoritative
     sibling once updated. Completing the truncation restores the leaf
     chain's key order. Interrupted *inner* splits are harmless: descent
     never uses inner siblings and the leaf chain remains complete. *)
  let heal t =
    let rec leftmost_leaf node =
      if node = 0 || is_leaf t node then node
      else
        leftmost_leaf
          (Tv.value (Ctx.read_ptr t.ctx ~sid:"ff:heal.leftmost" (node + n_leftmost)))
    in
    let max_live_key node =
      let rec go i acc =
        if i > max_entries then acc
        else if not (Tv.to_bool (read_ptr t ~sid:"ff:heal.ptr" node i)) then acc
        else go (i + 1) (max acc (Tv.value (read_key t ~sid:"ff:heal.key" node i)))
      in
      go 0 min_int
    in
    let rec chain leaf fuel =
      if leaf <> 0 && fuel > 0 then begin
        let rs = sibling t leaf in
        if rs <> 0 then begin
          let rsp = read_ptr t ~sid:"ff:heal.rs_ptr" rs 0 in
          if Tv.to_bool rsp then begin
            let rs_first = Tv.value (read_key t ~sid:"ff:heal.rs_key" rs 0) in
            if max_live_key leaf >= rs_first then begin
              (* complete the interrupted truncation *)
              let rec find_pos i =
                if i > max_entries then i
                else if not (Tv.to_bool (read_ptr t ~sid:"ff:heal.pos_ptr" leaf i))
                then i
                else if Tv.value (read_key t ~sid:"ff:heal.pos_key" leaf i)
                        >= rs_first then i
                else find_pos (i + 1)
              in
              let pos = find_pos 0 in
              write_entry t ~sid:"ff:heal.truncate" leaf pos ~key:0 ~ptr:0;
              Ctx.persist t.ctx ~sid:"ff:heal.truncate_persist"
                (entry_addr leaf pos) entry_len
            end
          end
        end;
        chain rs (fuel - 1)
      end
    in
    chain (leftmost_leaf (read_root t)) 10_000

  let open_ ctx =
    let pool = Pmdk.Pool.open_ ctx in
    let t = { ctx; pool } in
    if not (Tv.to_bool (Ctx.read_u64 ctx ~sid:"ff:open.root" (root_addr t)))
    then begin
      let leaf = alloc_node t ~leaf:true in
      set_root t leaf ~persist_first:true ~sid:"ff:recover"
    end
    else if not (cfg.split_order || cfg.insert_noflush || cfg.delete_tear
                 || cfg.merge_order) then
      heal t;
    t

  (* --- value blobs --- *)

  let write_blob t v =
    let blob = Pmdk.Alloc.alloc t.pool blob_len in
    Ctx.write_u64 t.ctx ~sid:"ff:blob.len" blob
      (Tv.const (min (String.length v) val_max));
    Ctx.write_bytes t.ctx ~sid:"ff:blob.bytes" (blob + 8)
      (Tv.blob (Value.pad val_max v));
    Ctx.persist t.ctx ~sid:"ff:blob.persist" blob blob_len;
    blob

  let read_blob t ptr =
    let len = Tv.value (Ctx.read_u64 t.ctx ~sid:"ff:blob.read_len" ptr) in
    if len < 0 || len > val_max then
      raise (Pmem.Fault { addr = ptr; len })
    else begin
      let b = Ctx.read_bytes t.ctx ~sid:"ff:blob.read_bytes" (ptr + 8) len in
      Tv.blob_value b
    end

  (* --- descent --- *)

  (* Child of an inner node for key [k]: leftmost if k < keys[0], else the
     last entry with key <= k. Reads are guarded by the entry pointers. *)
  let child_for t node k =
    let rec go i best =
      if i > max_entries then best
      else begin
        let p = read_ptr t ~sid:"ff:descend.ptr" node i in
        Ctx.if_ t.ctx p
          ~then_:(fun () ->
              let key = read_key t ~sid:"ff:descend.key" node i in
              if Tv.value key <= k then go (i + 1) (Tv.value p) else best)
          ~else_:(fun () -> best)
      end
    in
    let leftmost =
      Tv.value (Ctx.read_ptr t.ctx ~sid:"ff:descend.leftmost" (node + n_leftmost))
    in
    go 0 leftmost

  (* Descend to the leaf that should hold [k]; returns the leaf and the
     path of inner nodes (root first). *)
  let find_leaf t k =
    let rec go node path =
      if is_leaf t node then (node, path)
      else go (child_for t node k) (node :: path)
    in
    go (read_root t) []

  (* Find [k] in a leaf, tolerating transient duplicates; if [k] exceeds
     every key present, follow the sibling chain (FAST-FAIR reads). *)
  let rec leaf_find t leaf k =
    let rec go i max_seen =
      if i > max_entries then `Check_sibling max_seen
      else begin
        let p = Ctx.read_ptr t.ctx ~sid:"ff:find.ptr" (entry_addr leaf i + 8) in
        match
          Ctx.if_ t.ctx p
            ~then_:(fun () ->
                let key = read_key t ~sid:"ff:find.key" leaf i in
                Ctx.if_ t.ctx (Tv.eq key (Tv.const k))
                  ~then_:(fun () -> `Found (i, Tv.value p))
                  ~else_:(fun () -> `Next (max max_seen (Tv.value key))))
            ~else_:(fun () -> `Check_sibling max_seen)
        with
        | `Found _ as f -> f
        | `Next m -> go (i + 1) m
        | `Check_sibling _ as c -> c
      end
    in
    match go 0 min_int with
    | `Found (i, p) -> Some (leaf, i, p)
    | `Check_sibling max_seen ->
      let sib = sibling t leaf in
      if sib <> 0 && k > max_seen then leaf_find t sib k else None

  (* --- failure-atomic in-node insert / delete --- *)

  (* Sorted position for [k] among the live entries. *)
  let position t node k =
    let rec go i =
      if i > max_entries then i
      else if not (Tv.to_bool (read_ptr t ~sid:"ff:pos.ptr" node i)) then i
      else if Tv.value (read_key t ~sid:"ff:pos.key" node i) >= k then i
      else go (i + 1)
    in
    go 0

  (* Shift entries [pos..n) one slot right (rightmost first, whole-entry
     atomic stores: at any crash point the array is sorted with at most a
     duplicate, which readers skip), then plant the new entry. *)
  (* Failure-Atomic ShifT (FAST): slot [j]'s old content is destroyed only
     after its copy at [j + 1] is durable. Within one cache line, TSO
     store order already guarantees this; when the shift crosses a line
     boundary the destination line is flushed and fenced first. *)
  let boundary_persist t node j ~sid =
    if Pmem.line_of_addr (entry_addr node j)
       <> Pmem.line_of_addr (entry_addr node (j + 1)) then begin
      Ctx.flush t.ctx ~sid (entry_addr node (j + 1));
      Ctx.fence t.ctx ~sid
    end

  let insert_entry t node ~k ~ptr ~sid_prefix =
    let n = count_entries t node in
    assert (n <= max_entries);
    let careful = not cfg.insert_noflush in
    (* Re-terminate past the new end first: slots beyond the current
       terminator may hold stale entries from earlier shifts, and this
       write is invisible until the shift reaches slot [n]. *)
    if n + 1 <= max_entries then
      write_entry t ~sid:(sid_prefix ^ ".term") node (n + 1) ~key:0 ~ptr:0;
    let pos = position t node k in
    for i = n - 1 downto pos do
      if careful then boundary_persist t node (i + 1) ~sid:(sid_prefix ^ ".boundary");
      let key = Tv.value (read_key t ~sid:(sid_prefix ^ ".shift_rdk") node i) in
      let p = Tv.value (read_ptr t ~sid:(sid_prefix ^ ".shift_rdp") node i) in
      write_entry t ~sid:(sid_prefix ^ ".shift") node (i + 1) ~key ~ptr:p
    done;
    if careful then boundary_persist t node pos ~sid:(sid_prefix ^ ".boundary");
    write_entry t ~sid:(sid_prefix ^ ".entry") node pos ~key:k ~ptr;
    if cfg.insert_noflush then
      (* BUG (bug 3, C-O): neither the boundary flushes of FAST nor a
         final flush of the entry region — only a fence, which persists
         nothing that was never flushed. *)
      Ctx.fence t.ctx ~sid:(sid_prefix ^ ".fence_only")
    else begin
      Ctx.flush_range t.ctx ~sid:(sid_prefix ^ ".flush")
        (entry_addr node pos) ((n - pos + 2) * entry_len);
      Ctx.fence t.ctx ~sid:(sid_prefix ^ ".fence")
    end

  (* Remove the entry at [pos] by shifting left. Fixed: whole-entry atomic
     moves. Buggy: torn key/ptr stores (bug 4). *)
  let remove_entry t node pos ~sid_prefix =
    let n = count_entries t node in
    for i = pos to n - 1 do
      (* Slot [i]'s incoming copy destroys its old content, which the
         previous iteration already copied to [i - 1]; make that copy
         durable across a line boundary first (FAST, leftward). *)
      if not cfg.delete_tear && i > pos
      && Pmem.line_of_addr (entry_addr node i)
         <> Pmem.line_of_addr (entry_addr node (i - 1)) then begin
        Ctx.flush t.ctx ~sid:(sid_prefix ^ ".boundary") (entry_addr node (i - 1));
        Ctx.fence t.ctx ~sid:(sid_prefix ^ ".boundary")
      end;
      if i + 1 >= max_entries + 1 then
        write_entry t ~sid:(sid_prefix ^ ".clear") node i ~key:0 ~ptr:0
      else begin
        let key = Tv.value (read_key t ~sid:(sid_prefix ^ ".shift_rdk") node (i + 1)) in
        let p = Tv.value (read_ptr t ~sid:(sid_prefix ^ ".shift_rdp") node (i + 1)) in
        if cfg.delete_tear then
          (* BUG (bug 4, C-A): key and pointer move in two separate
             stores; a crash in between binds a key to its neighbour's
             value, and nothing ever repairs it. *)
          write_entry_torn t ~sid:(sid_prefix ^ ".shift_torn") node i ~key ~ptr:p
        else
          write_entry t ~sid:(sid_prefix ^ ".shift") node i ~key ~ptr:p
      end
    done;
    Ctx.flush_range t.ctx ~sid:(sid_prefix ^ ".flush")
      (entry_addr node pos) ((n - pos) * entry_len);
    Ctx.fence t.ctx ~sid:(sid_prefix ^ ".fence")

  (* --- split --- *)

  (* Split [node]; returns (separator key, new right node). For leaves the
     separator is copied (B+-tree); for inner nodes it moves up and the
     middle child becomes the new node's leftmost. *)
  let split_node t node =
    let leaf = is_leaf t node in
    let nnew = alloc_node t ~leaf in
    let mid =
      if not leaf then max_entries / 2
      else begin
        (* Never separate duplicate copies of a key (a tolerated crash
           left-over): all copies must land on one side so the separator
           routes every reader to them. *)
        let key_at i = Tv.value (read_key t ~sid:"ff:split.scan_key" node i) in
        let n = count_entries t node in
        let rec up m =
          if m >= n then
            let rec down m =
              if m <= 1 then max_entries / 2
              else if key_at m <> key_at (m - 1) then m
              else down (m - 1)
            in
            down (max_entries / 2)
          else if key_at m <> key_at (m - 1) then m
          else up (m + 1)
        in
        up (max_entries / 2)
      end
    in
    let sep = Tv.value (read_key t ~sid:"ff:split.sep" node mid) in
    let from = if leaf then mid else mid + 1 in
    let rec copy i j =
      if i <= max_entries
      && Tv.to_bool (read_ptr t ~sid:"ff:split.src_ptr" node i) then begin
        let key = Tv.value (read_key t ~sid:"ff:split.src_key" node i) in
        let p = Tv.value (read_ptr t ~sid:"ff:split.src_ptr2" node i) in
        write_entry t ~sid:"ff:split.copy" nnew j ~key ~ptr:p;
        copy (i + 1) (j + 1)
      end
    in
    copy from 0;
    if not leaf then begin
      let midp = Tv.value (read_ptr t ~sid:"ff:split.mid_child" node mid) in
      Ctx.write_u64 t.ctx ~sid:"ff:split.leftmost" (nnew + n_leftmost)
        (Tv.const midp)
    end;
    let sib = sibling t node in
    Ctx.write_u64 t.ctx ~sid:"ff:split.sibling" (nnew + n_sibling) (Tv.const sib);
    if not cfg.split_order then
      (* Fixed: the new node is durable before anything points at it. *)
      Ctx.persist t.ctx ~sid:"ff:split.new_persist" nnew node_len;
    (* Link into the sibling chain, then truncate the old node. *)
    Ctx.write_u64 t.ctx ~sid:"ff:split.link" (node + n_sibling) (Tv.const nnew);
    Ctx.persist t.ctx ~sid:"ff:split.link_persist" (node + n_sibling) 8;
    write_entry t ~sid:"ff:split.truncate" node mid ~key:0 ~ptr:0;
    Ctx.persist t.ctx ~sid:"ff:split.truncate_persist" (entry_addr node mid)
      entry_len;
    (sep, nnew)

  (* FAIR write-path tolerance: if [k] lies beyond every key in this node
     and a right sibling exists — the node split but an ancestor doesn't
     know yet — move right before inserting. The predicate must be
     exactly the reader's (leaf_find follows the sibling iff k exceeds
     the node's maximum), otherwise writes land where reads never look. *)
  let rec chase_right t node k =
    let sib = sibling t node in
    if sib = 0 then node
    else begin
      let rec max_key i acc =
        if i > max_entries then acc
        else if not (Tv.to_bool (read_ptr t ~sid:"ff:chase.ptr" node i)) then acc
        else
          max_key (i + 1)
            (max acc (Tv.value (read_key t ~sid:"ff:chase.key" node i)))
      in
      if k > max_key 0 min_int then chase_right t sib k else node
    end

  (* Insert (k, ptr) into [node], splitting up the [path] as needed. *)
  let rec insert_into t node path ~k ~ptr ~sid_prefix =
    let node = chase_right t node k in
    if count_entries t node >= max_entries then begin
      let sep, nnew = split_node t node in
      (match path with
       | parent :: rest ->
         insert_into t parent rest ~k:sep ~ptr:nnew ~sid_prefix:"ff:parent"
       | [] ->
         if read_root t = node then begin
           (* Root split: fresh root over [node] and [nnew]. BUG (bug 5,
              C-A): with [split_order] the root pointer swaps before the
              new root's contents are durable — after a crash the root is
              garbage and every operation faults. *)
           let root = alloc_node t ~leaf:false in
           Ctx.write_u64 t.ctx ~sid:"ff:rootsplit.leftmost" (root + n_leftmost)
             (Tv.const node);
           write_entry t ~sid:"ff:rootsplit.entry" root 0 ~key:sep ~ptr:nnew;
           set_root t root ~persist_first:(not cfg.split_order) ~sid:"ff:rootsplit"
         end
         (* else: a chased node with no recorded ancestors split; the new
            sibling stays chain-reachable and readers tolerate it *));
      (* Retry in the correct half. *)
      let target = if k >= sep then nnew else node in
      insert_entry t (chase_right t target k) ~k ~ptr ~sid_prefix
    end
    else insert_entry t node ~k ~ptr ~sid_prefix

  (* --- merge (empty-leaf absorption) --- *)

  (* After a delete empties [leaf], absorb the right sibling if it shares
     [parent]: copy its entries in, bypass it in the sibling chain, and
     drop its separator from the parent. *)
  let try_merge t leaf parent =
    let rs = sibling t leaf in
    if rs = 0 then ()
    else begin
      (* Only merge when the parent's entry points at [rs]. *)
      let rec parent_pos i =
        if i > max_entries then None
        else if not (Tv.to_bool (read_ptr t ~sid:"ff:merge.p_ptr" parent i)) then None
        else if Tv.value (read_ptr t ~sid:"ff:merge.p_ptr2" parent i) = rs then Some i
        else parent_pos (i + 1)
      in
      match parent_pos 0 with
      | None -> ()
      | Some pos ->
        let unlink () =
          Ctx.write_u64 t.ctx ~sid:"ff:merge.bypass" (leaf + n_sibling)
            (Tv.const (sibling t rs));
          Ctx.persist t.ctx ~sid:"ff:merge.bypass_persist" (leaf + n_sibling) 8;
          remove_entry t parent pos ~sid_prefix:"ff:merge.parent"
        in
        if cfg.merge_order then begin
          (* BUG (bug 6, C-A): the sibling is unlinked before its borrowed
             entries are durable; a crash loses every key it held. *)
          unlink ();
          let n = count_entries t rs in
          if n + 1 <= max_entries then
            write_entry t ~sid:"ff:merge.term" leaf (n + 1) ~key:0 ~ptr:0;
          if n <= max_entries then
            write_entry t ~sid:"ff:merge.term2" leaf n ~key:0 ~ptr:0;
          for i = n - 1 downto 0 do
            let key = Tv.value (read_key t ~sid:"ff:merge.rdk" rs i) in
            let p = Tv.value (read_ptr t ~sid:"ff:merge.rdp" rs i) in
            write_entry t ~sid:"ff:merge.copy" leaf i ~key ~ptr:p
          done;
          Ctx.flush_range t.ctx ~sid:"ff:merge.flush" (entry_addr leaf 0)
            (n * entry_len);
          Ctx.fence t.ctx ~sid:"ff:merge.fence"
        end
        else begin
          (* Fixed: stage everything beyond slot 0 and make it durable,
             then publish with the slot-0 store (the leaf is invisible
             while slot 0 still terminates it), then unlink. *)
          let n = count_entries t rs in
          if n + 1 <= max_entries then
            write_entry t ~sid:"ff:merge.term" leaf (n + 1) ~key:0 ~ptr:0;
          if n <= max_entries then
            write_entry t ~sid:"ff:merge.term2" leaf n ~key:0 ~ptr:0;
          for i = n - 1 downto 1 do
            let key = Tv.value (read_key t ~sid:"ff:merge.rdk" rs i) in
            let p = Tv.value (read_ptr t ~sid:"ff:merge.rdp" rs i) in
            write_entry t ~sid:"ff:merge.copy" leaf i ~key ~ptr:p
          done;
          Ctx.flush_range t.ctx ~sid:"ff:merge.flush" (entry_addr leaf 0)
            (min (n + 2) (max_entries + 1) * entry_len);
          Ctx.fence t.ctx ~sid:"ff:merge.fence";
          if n > 0 then begin
            let key = Tv.value (read_key t ~sid:"ff:merge.rdk" rs 0) in
            let p = Tv.value (read_ptr t ~sid:"ff:merge.rdp" rs 0) in
            write_entry t ~sid:"ff:merge.publish" leaf 0 ~key ~ptr:p;
            Ctx.persist t.ctx ~sid:"ff:merge.publish_persist"
              (entry_addr leaf 0) entry_len
          end;
          unlink ()
        end
    end

  (* --- operations --- *)

  let insert t k v =
    let leaf0, _ = find_leaf t k in
    match leaf_find t leaf0 k with
    | Some (node, i, _) ->
      (* Upsert: swing the value pointer, as update does. *)
      let blob = write_blob t v in
      Ctx.write_u64 t.ctx ~sid:"ff:insert.upsert" (entry_addr node i + 8)
        (Tv.const blob);
      Ctx.persist t.ctx ~sid:"ff:insert.upsert_persist" (entry_addr node i + 8) 8;
      Output.Ok
    | None ->
      let blob = write_blob t v in
      let leaf, path = find_leaf t k in
      insert_into t leaf path ~k ~ptr:blob ~sid_prefix:"ff:insert";
      Output.Ok

  let update t k v =
    let leaf, _ = find_leaf t k in
    match leaf_find t leaf k with
    | None -> Output.Not_found
    | Some (node, i, _) ->
      let blob = write_blob t v in
      Ctx.write_u64 t.ctx ~sid:"ff:update.ptr" (entry_addr node i + 8)
        (Tv.const blob);
      Ctx.persist t.ctx ~sid:"ff:update.persist" (entry_addr node i + 8) 8;
      Output.Ok

  (* Delete every copy of [k]: a tolerated crash may have left a duplicate
     entry, and removing only the first would resurrect the key with a
     stale value. *)
  let delete t k =
    let rec drop_all rounds last =
      if rounds > 2 * max_entries then last
      else begin
        let leaf, path = find_leaf t k in
        match leaf_find t leaf k with
        | None -> last
        | Some (node, i, _) ->
          remove_entry t node i ~sid_prefix:"ff:delete";
          drop_all (rounds + 1) (Some (node, path))
      end
    in
    match drop_all 0 None with
    | None -> Output.Not_found
    | Some (node, path) ->
      (match path with
       | parent :: _ when count_entries t node = 0 -> try_merge t node parent
       | _ -> ());
      Output.Ok

  let query t k =
    let leaf, _ = find_leaf t k in
    match leaf_find t leaf k with
    | None -> Output.Not_found
    | Some (_, _, ptr) -> Output.Found (read_blob t ptr)

  (* Range scan: walk the leaf level through the sibling chain, skipping
     duplicate keys (tolerated transient states). *)
  let scan t start count =
    let leaf, _ = find_leaf t start in
    let out = ref [] and seen = ref 0 and last_key = ref min_int in
    let rec walk node =
      if node <> 0 && !seen < count then begin
        let rec entries i =
          if i <= max_entries && !seen < count then begin
            let p = read_ptr t ~sid:"ff:scan.ptr" node i in
            if Tv.to_bool p then begin
              let key = Tv.value (read_key t ~sid:"ff:scan.key" node i) in
              if key >= start && key <> !last_key then begin
                last_key := key;
                incr seen;
                out := read_blob t (Tv.value p) :: !out
              end;
              entries (i + 1)
            end
          end
        in
        entries 0;
        if !seen < count then walk (sibling t node)
      end
    in
    walk leaf;
    Output.Vals (List.rev !out)

  let exec t op =
    match op with
    | Op.Insert (k, v) -> insert t k v
    | Op.Update (k, v) -> update t k v
    | Op.Delete k -> delete t k
    | Op.Query k -> query t k
    | Op.Scan (k, n) -> scan t k n
end

let make ?(cfg = buggy_cfg) () : Witcher.Store_intf.instance =
  let module M = Make (struct let cfg = cfg end) in
  (module M)

let buggy () = make ~cfg:buggy_cfg ()
let fixed () = make ~cfg:fixed_cfg ()
