(* PMDK example B-Tree (paper row "B-Tree", bug 40 + five P-EL findings).
   A textbook count-based B-tree whose crash consistency comes entirely
   from PMDK undo-log transactions: every reachable node is add_range'd
   before it is modified, so in-place shifts are safe.

   Seeded defects:
   - [parent_unlogged] (bug 40, C-A "missing logging in a transaction"):
     the split path modifies the parent (separator insert, shifts)
     without logging it; recovery rolls the leaf back but leaves the
     half-shifted parent — an inconsistent structure.
   - [extra_logging] (P-EL x5): five call sites re-log ranges that are
     already covered by the enclosing node log, the classic PMDK
     redundant-undo-logging performance bug.

   This store doubles as the paper's "libpmemobj" row: built with
   [alloc_bug:true] the app code is clean and the only defect is the
   allocator's persistence-ordering bug (paper bug 1, PMDK issue 4945). *)

open Nvm
module Op = Witcher.Op
module Output = Witcher.Output

type cfg = {
  parent_unlogged : bool;
  extra_logging : bool;
  alloc_bug : bool;
}

let buggy_cfg = { parent_unlogged = true; extra_logging = true; alloc_bug = false }
let fixed_cfg = { parent_unlogged = false; extra_logging = false; alloc_bug = false }
let libpmemobj_cfg = { parent_unlogged = false; extra_logging = false; alloc_bug = true }

let cap = 8
let val_len = 8

let n_is_leaf = 0
let n_count = 8
let n_leftmost = 16
let n_entries = 32
let entry_len = 16
let node_len = n_entries + ((cap + 1) * entry_len)

module Make (C : sig val cfg : cfg val name : string end) = struct
  let name = C.name
  let pool_size = 8 * 1024 * 1024
  let supports_scan = true

  let cfg = C.cfg

  type t = {
    ctx : Ctx.t;
    pool : Pmdk.Pool.t;
  }

  let entry_addr node i = node + n_entries + (i * entry_len)

  let is_leaf t n =
    Tv.to_bool (Ctx.read_u64 t.ctx ~sid:"bt:node.is_leaf" (n + n_is_leaf))

  let count_of t n = Ctx.read_u64 t.ctx ~sid:"bt:node.count" (n + n_count)

  let read_key t ~sid n i = Ctx.read_u64 t.ctx ~sid (entry_addr n i)
  let read_val t ~sid n i = Ctx.read_u64 t.ctx ~sid (entry_addr n i + 8)

  let alloc_node t ~leaf =
    let n = Pmdk.Alloc.zalloc t.pool node_len in
    Ctx.write_u64 t.ctx ~sid:"bt:mknode.is_leaf" (n + n_is_leaf)
      (Tv.const (if leaf then 1 else 0));
    Ctx.persist t.ctx ~sid:"bt:mknode.persist" n 32;
    n

  let root_addr t = Pmdk.Pool.root t.pool

  let pool_cfg () =
    { Pmdk.Pool.alloc_bug = cfg.alloc_bug }

  let create ctx =
    let pool = Pmdk.Pool.create ~cfg:(pool_cfg ()) ctx ~root_size:16 in
    let t = { ctx; pool } in
    let leaf = alloc_node t ~leaf:true in
    Ctx.write_u64 ctx ~sid:"bt:create.root" (root_addr t) (Tv.const leaf);
    Ctx.persist ctx ~sid:"bt:create.root_persist" (root_addr t) 8;
    t

  let open_ ctx =
    let pool = Pmdk.Pool.open_ ~cfg:(pool_cfg ()) ctx in
    Pmdk.Tx.recover pool;
    let t = { ctx; pool } in
    if not (Tv.to_bool (Ctx.read_u64 ctx ~sid:"bt:open.root" (root_addr t)))
    then begin
      let leaf = alloc_node t ~leaf:true in
      Ctx.write_u64 ctx ~sid:"bt:recover.root" (root_addr t) (Tv.const leaf);
      Ctx.persist ctx ~sid:"bt:recover.root_persist" (root_addr t) 8
    end;
    t

  let log_node tx node = Pmdk.Tx.add_range tx node node_len

  (* sorted position of k among entries *)
  let position t node k =
    let cnt = min (Tv.value (count_of t node)) cap in
    let rec go i =
      if i >= cnt then i
      else if Tv.value (read_key t ~sid:"bt:pos.key" node i) >= k then i
      else go (i + 1)
    in
    go 0

  let child_for t n k =
    let cnt = count_of t n in
    let m = min (Tv.value cnt) cap in
    Ctx.with_guard t.ctx (Tv.taint cnt) (fun () ->
        let rec go i best =
          if i >= m then best
          else begin
            let key = read_key t ~sid:"bt:descend.key" n i in
            if Tv.value key <= k then
              go (i + 1) (Tv.value (read_val t ~sid:"bt:descend.child" n i))
            else best
          end
        in
        go 0
          (Tv.value (Ctx.read_ptr t.ctx ~sid:"bt:descend.leftmost" (n + n_leftmost))))

  let find_leaf t k =
    let rec go n path =
      if is_leaf t n then (n, path)
      else go (child_for t n k) (n :: path)
    in
    go (Tv.value (Ctx.read_ptr t.ctx ~sid:"bt:root" (root_addr t))) []

  let leaf_find t leaf k =
    let cnt = count_of t leaf in
    let m = min (Tv.value cnt) cap in
    Ctx.with_guard t.ctx (Tv.taint cnt) (fun () ->
        let rec go i =
          if i >= m then None
          else begin
            let key = read_key t ~sid:"bt:find.key" leaf i in
            match
              Ctx.if_ t.ctx (Tv.eq key (Tv.const k))
                ~then_:(fun () -> Some i)
                ~else_:(fun () -> None)
            with
            | Some i -> Some i
            | None -> go (i + 1)
          end
        in
        go 0)

  (* In-place sorted insert under the protection of the node's undo log. *)
  let insert_entry t tx node ~k ~v ~sid_prefix =
    log_node tx node;
    if cfg.extra_logging then
      (* BUG (P-EL): the entry region is inside the node just logged. *)
      Pmdk.Tx.add_range tx (entry_addr node 0) entry_len;
    let cnt = Tv.value (count_of t node) in
    let pos = position t node k in
    for i = cnt - 1 downto pos do
      let key = Tv.value (read_key t ~sid:(sid_prefix ^ ".shift_rdk") node i) in
      let v =
        Ctx.read_bytes t.ctx ~sid:(sid_prefix ^ ".shift_rdv")
          (entry_addr node i + 8) 8
      in
      if cfg.extra_logging then
        (* BUG (P-EL): per-entry re-logging during the shift. *)
        Pmdk.Tx.add_range tx (entry_addr node (i + 1)) entry_len;
      Ctx.write_u64 t.ctx ~sid:(sid_prefix ^ ".shift_key")
        (entry_addr node (i + 1)) (Tv.const key);
      Ctx.write_bytes t.ctx ~sid:(sid_prefix ^ ".shift_val")
        (entry_addr node (i + 1) + 8) v
    done;
    Ctx.write_u64 t.ctx ~sid:(sid_prefix ^ ".key") (entry_addr node pos)
      (Tv.const k);
    Ctx.write_bytes t.ctx ~sid:(sid_prefix ^ ".val") (entry_addr node pos + 8)
      (Tv.blob (Value.pad val_len v));
    Ctx.write_u64 t.ctx ~sid:(sid_prefix ^ ".count") (node + n_count)
      (Tv.const (cnt + 1))

  (* Split [node]; separator goes to the parent (or a new root). All
     modified pre-existing nodes must be logged — the parent is not when
     [parent_unlogged] (bug 40). *)
  let rec split t tx node path =
    let leaf = is_leaf t node in
    let cnt = Tv.value (count_of t node) in
    let mid = cnt / 2 in
    let sep = Tv.value (read_key t ~sid:"bt:split.sep" node mid) in
    let nnew = alloc_node t ~leaf in
    let from = if leaf then mid else mid + 1 in
    for i = from to cnt - 1 do
      let key = Tv.value (read_key t ~sid:"bt:split.rdk" node i) in
      let v = Ctx.read_bytes t.ctx ~sid:"bt:split.rdv" (entry_addr node i + 8) 8 in
      Ctx.write_u64 t.ctx ~sid:"bt:split.copy_key" (entry_addr nnew (i - from))
        (Tv.const key);
      Ctx.write_bytes t.ctx ~sid:"bt:split.copy_val"
        (entry_addr nnew (i - from) + 8) v
    done;
    if not leaf then begin
      let mc = Tv.value (read_val t ~sid:"bt:split.midchild" node mid) in
      Ctx.write_u64 t.ctx ~sid:"bt:split.leftmost" (nnew + n_leftmost)
        (Tv.const mc)
    end;
    Ctx.write_u64 t.ctx ~sid:"bt:split.new_count" (nnew + n_count)
      (Tv.const (cnt - from));
    Ctx.persist t.ctx ~sid:"bt:split.new_persist" nnew node_len;
    log_node tx node;
    if cfg.extra_logging then
      (* BUG (P-EL): the count is inside the logged node. *)
      Pmdk.Tx.add_range tx (node + n_count) 8;
    Ctx.write_u64 t.ctx ~sid:"bt:split.truncate" (node + n_count)
      (Tv.const mid);
    (match path with
     | parent :: rest ->
       if Tv.value (count_of t parent) >= cap then split t tx parent rest;
       (* re-descend for the right parent after a potential split above *)
       let parent =
         let rec again n =
           if is_leaf t n then n
           else begin
             let c = child_for t n sep in
             if c = node || c = nnew then n else again c
           end
         in
         again
           (Tv.value (Ctx.read_ptr t.ctx ~sid:"bt:split.reroot" (root_addr t)))
       in
       if not cfg.parent_unlogged then log_node tx parent
       else
         (* BUG (bug 40, C-A): the parent is modified without logging. *)
         ();
       let cnt = Tv.value (count_of t parent) in
       let pos = position t parent sep in
       for i = cnt - 1 downto pos do
         let key = Tv.value (read_key t ~sid:"bt:parent.shift_rdk" parent i) in
         let v = Tv.value (read_val t ~sid:"bt:parent.shift_rdv" parent i) in
         Ctx.write_u64 t.ctx ~sid:"bt:parent.shift_key"
           (entry_addr parent (i + 1)) (Tv.const key);
         Ctx.write_u64 t.ctx ~sid:"bt:parent.shift_val"
           (entry_addr parent (i + 1) + 8) (Tv.const v)
       done;
       Ctx.write_u64 t.ctx ~sid:"bt:parent.key" (entry_addr parent pos)
         (Tv.const sep);
       Ctx.write_u64 t.ctx ~sid:"bt:parent.val" (entry_addr parent pos + 8)
         (Tv.const nnew);
       Ctx.write_u64 t.ctx ~sid:"bt:parent.count" (parent + n_count)
         (Tv.const (cnt + 1))
     | [] ->
       let root = alloc_node t ~leaf:false in
       Ctx.write_u64 t.ctx ~sid:"bt:rootsplit.leftmost" (root + n_leftmost)
         (Tv.const node);
       Ctx.write_u64 t.ctx ~sid:"bt:rootsplit.key" (entry_addr root 0)
         (Tv.const sep);
       Ctx.write_u64 t.ctx ~sid:"bt:rootsplit.child" (entry_addr root 0 + 8)
         (Tv.const nnew);
       Ctx.write_u64 t.ctx ~sid:"bt:rootsplit.count" (root + n_count) Tv.one;
       Ctx.persist t.ctx ~sid:"bt:rootsplit.persist" root node_len;
       Pmdk.Tx.add_range tx (root_addr t) 8;
       Ctx.write_u64 t.ctx ~sid:"bt:rootsplit.swap" (root_addr t)
         (Tv.const root))

  let insert t k v =
    let leaf0, _ = find_leaf t k in
    match leaf_find t leaf0 k with
    | Some i ->
      Pmdk.Tx.run t.pool (fun tx ->
          Pmdk.Tx.add_range tx (entry_addr leaf0 i + 8) 8;
          if cfg.extra_logging then
            (* BUG (P-EL): same range logged twice back to back. *)
            Pmdk.Tx.add_range tx (entry_addr leaf0 i + 8) 8;
          Ctx.write_bytes t.ctx ~sid:"bt:insert.upsert" (entry_addr leaf0 i + 8)
            (Tv.blob (Value.pad val_len v)));
      Output.Ok
    | None ->
      Pmdk.Tx.run t.pool (fun tx ->
          let leaf, path = find_leaf t k in
          if Tv.value (count_of t leaf) >= cap then begin
            split t tx leaf path;
            let leaf, _ = find_leaf t k in
            insert_entry t tx leaf ~k ~v ~sid_prefix:"bt:insert"
          end
          else insert_entry t tx leaf ~k ~v ~sid_prefix:"bt:insert");
      Output.Ok

  let update t k v =
    let leaf, _ = find_leaf t k in
    match leaf_find t leaf k with
    | Some i ->
      Pmdk.Tx.run t.pool (fun tx ->
          Pmdk.Tx.add_range tx (entry_addr leaf i + 8) 8;
          if cfg.extra_logging then
            (* BUG (P-EL): redundant re-log of the value word. *)
            Pmdk.Tx.add_range tx (entry_addr leaf i + 8) 8;
          Ctx.write_bytes t.ctx ~sid:"bt:update.val" (entry_addr leaf i + 8)
            (Tv.blob (Value.pad val_len v)));
      Output.Ok
    | None -> Output.Not_found

  let delete t k =
    let leaf, _ = find_leaf t k in
    match leaf_find t leaf k with
    | Some pos ->
      Pmdk.Tx.run t.pool (fun tx ->
          log_node tx leaf;
          if cfg.extra_logging then
            (* BUG (P-EL): the shifted region is inside the logged node. *)
            Pmdk.Tx.add_range tx (entry_addr leaf pos) entry_len;
          let cnt = Tv.value (count_of t leaf) in
          for i = pos to cnt - 2 do
            let key = Tv.value (read_key t ~sid:"bt:delete.shift_rdk" leaf (i + 1)) in
            let v =
              Ctx.read_bytes t.ctx ~sid:"bt:delete.shift_rdv"
                (entry_addr leaf (i + 1) + 8) 8
            in
            Ctx.write_u64 t.ctx ~sid:"bt:delete.shift_key" (entry_addr leaf i)
              (Tv.const key);
            Ctx.write_bytes t.ctx ~sid:"bt:delete.shift_val"
              (entry_addr leaf i + 8) v
          done;
          Ctx.write_u64 t.ctx ~sid:"bt:delete.count" (leaf + n_count)
            (Tv.const (cnt - 1)));
      Output.Ok
    | None -> Output.Not_found

  let query t k =
    let leaf, _ = find_leaf t k in
    match leaf_find t leaf k with
    | Some i ->
      Output.Found
        (Value.strip
           (Tv.blob_value
              (Ctx.read_bytes t.ctx ~sid:"bt:read.val" (entry_addr leaf i + 8) 8)))
    | None -> Output.Not_found

  (* In-order range scan. *)
  let scan t start count =
    let out = ref [] and seen = ref 0 in
    let rec walk n =
      if n <> 0 && !seen < count then begin
        let cnt = min (Tv.value (count_of t n)) cap in
        if is_leaf t n then begin
          let rec entries i =
            if i < cnt && !seen < count then begin
              let key = Tv.value (read_key t ~sid:"bt:scan.key" n i) in
              if key >= start then begin
                incr seen;
                out :=
                  Value.strip
                    (Tv.blob_value
                       (Ctx.read_bytes t.ctx ~sid:"bt:scan.val"
                          (entry_addr n i + 8) 8))
                  :: !out
              end;
              entries (i + 1)
            end
          in
          entries 0
        end
        else begin
          walk (Tv.value (Ctx.read_ptr t.ctx ~sid:"bt:scan.leftmost" (n + n_leftmost)));
          let rec kids i =
            if i < cnt && !seen < count then begin
              walk (Tv.value (read_val t ~sid:"bt:scan.child" n i));
              kids (i + 1)
            end
          in
          kids 0
        end
      end
    in
    walk (Tv.value (Ctx.read_ptr t.ctx ~sid:"bt:scan.root" (root_addr t)));
    Output.Vals (List.rev !out)

  let exec t op =
    match op with
    | Op.Insert (k, v) -> insert t k v
    | Op.Update (k, v) -> update t k v
    | Op.Delete k -> delete t k
    | Op.Query k -> query t k
    | Op.Scan (k, n) -> scan t k n
end

let make ?(cfg = buggy_cfg) ?(name = "b-tree") () : Witcher.Store_intf.instance =
  let module M = Make (struct let cfg = cfg let name = name end) in
  (module M)

let buggy () = make ~cfg:buggy_cfg ()
let fixed () = make ~cfg:fixed_cfg ()
let libpmemobj () = make ~cfg:libpmemobj_cfg ~name:"libpmemobj" ()
