(* PMDK example RB-Tree (paper rows "RB-Tree" and "RB-Tree-Aga", bugs
   41-43). A red-black tree whose every mutation runs in a PMDK undo-log
   transaction; crash consistency therefore hinges on logging each node
   *before* modifying it. Deletion tombstones the value (a re-insert
   revives the node), so the rotation-heavy path is insert fixup.

   Node: red(8) | left(8) | right(8) | parent(8) | key(8) | value(8B).

   Seeded defects (all C-A "missing logging in a transaction"):
   - [rotate_unlogged]  (bug 41, RB-Tree): rotations relink three nodes
     but log only the pivot — the child and parent pointer updates of the
     other two are unlogged, so recovery leaves a half-rotated tree.
   - [fixup_unlogged]   (bug 42, RB-Tree-Aga): the recolor writes in the
     insert fixup are unlogged.
   - [link_unlogged]    (bug 43, RB-Tree-Aga): the parent link of a newly
     attached node is written without logging the parent. *)

open Nvm
module Op = Witcher.Op
module Output = Witcher.Output

type cfg = {
  rotate_unlogged : bool;
  fixup_unlogged : bool;
  link_unlogged : bool;
}

let rb_cfg = { rotate_unlogged = true; fixup_unlogged = false; link_unlogged = false }
let aga_cfg = { rotate_unlogged = false; fixup_unlogged = true; link_unlogged = true }
let fixed_cfg = { rotate_unlogged = false; fixup_unlogged = false; link_unlogged = false }

let val_len = 8

let f_red = 0
let f_left = 8
let f_right = 16
let f_parent = 24
let f_key = 32
let f_val = 40
let node_len = 48

module Make (C : sig val cfg : cfg val name : string end) = struct
  let name = C.name
  let pool_size = 8 * 1024 * 1024
  let supports_scan = false

  let cfg = C.cfg

  type t = {
    ctx : Ctx.t;
    pool : Pmdk.Pool.t;
  }

  let root_slot t = Pmdk.Pool.root t.pool

  let create ctx =
    let pool = Pmdk.Pool.create ctx ~root_size:16 in
    { ctx; pool }

  let open_ ctx =
    let pool = Pmdk.Pool.open_ ctx in
    Pmdk.Tx.recover pool;
    { ctx; pool }

  let get t ~sid n off = Tv.value (Ctx.read_u64 t.ctx ~sid (n + off))
  let getp t ~sid n off = Tv.value (Ctx.read_ptr t.ctx ~sid (n + off))
  let set t ~sid n off v = Ctx.write_u64 t.ctx ~sid (n + off) (Tv.const v)

  let log_field t tx n off ~skip =
    ignore t;
    if not skip then Pmdk.Tx.add_range tx (n + off) 8

  let root t = getp t ~sid:"rb:root" (root_slot t) 0

  (* Replace the child pointer of [parent] (or the root slot) that points
     at [old] with [next]. *)
  let replace_child t tx parent old next ~skip_log =
    if parent = 0 then begin
      if not skip_log then Pmdk.Tx.add_range tx (root_slot t) 8;
      set t ~sid:"rb:relink.root" (root_slot t) 0 next
    end
    else if getp t ~sid:"rb:relink.left" parent f_left = old then begin
      log_field t tx parent f_left ~skip:skip_log;
      set t ~sid:"rb:relink.set_left" parent f_left next
    end
    else begin
      log_field t tx parent f_right ~skip:skip_log;
      set t ~sid:"rb:relink.set_right" parent f_right next
    end

  (* Left rotation around [x]; [rotate_unlogged] logs only x itself. *)
  let rotate_left t tx x =
    let y = getp t ~sid:"rb:rot.y" x f_right in
    let yl = getp t ~sid:"rb:rot.yl" y f_left in
    let p = getp t ~sid:"rb:rot.p" x f_parent in
    Pmdk.Tx.add_range tx x node_len;
    (* BUG (bug 41, C-A): y and the parent are modified unlogged. *)
    log_field t tx y f_left ~skip:cfg.rotate_unlogged;
    log_field t tx y f_parent ~skip:cfg.rotate_unlogged;
    set t ~sid:"rb:rot.x_right" x f_right yl;
    if yl <> 0 then begin
      log_field t tx yl f_parent ~skip:cfg.rotate_unlogged;
      set t ~sid:"rb:rot.yl_parent" yl f_parent x
    end;
    set t ~sid:"rb:rot.y_left" y f_left x;
    set t ~sid:"rb:rot.y_parent" y f_parent p;
    set t ~sid:"rb:rot.x_parent" x f_parent y;
    replace_child t tx p x y ~skip_log:cfg.rotate_unlogged

  let rotate_right t tx x =
    let y = getp t ~sid:"rb:rot.y2" x f_left in
    let yr = getp t ~sid:"rb:rot.yr" y f_right in
    let p = getp t ~sid:"rb:rot.p2" x f_parent in
    Pmdk.Tx.add_range tx x node_len;
    log_field t tx y f_right ~skip:cfg.rotate_unlogged;
    log_field t tx y f_parent ~skip:cfg.rotate_unlogged;
    set t ~sid:"rb:rot.x_left" x f_left yr;
    if yr <> 0 then begin
      log_field t tx yr f_parent ~skip:cfg.rotate_unlogged;
      set t ~sid:"rb:rot.yr_parent" yr f_parent x
    end;
    set t ~sid:"rb:rot.y_right" y f_right x;
    set t ~sid:"rb:rot.y_parent2" y f_parent p;
    set t ~sid:"rb:rot.x_parent2" x f_parent y;
    replace_child t tx p x y ~skip_log:cfg.rotate_unlogged

  let is_red t n = n <> 0 && get t ~sid:"rb:node.red" n f_red = 1

  let set_color t tx n red ~buggy =
    if n <> 0 then begin
      (* BUG when [buggy] (bug 42, C-A): recolor without logging. *)
      log_field t tx n f_red ~skip:buggy;
      set t ~sid:"rb:fixup.color" n f_red (if red then 1 else 0)
    end

  (* Standard insert fixup. *)
  let rec fixup t tx z =
    let p = getp t ~sid:"rb:fix.p" z f_parent in
    if p = 0 then set_color t tx z false ~buggy:false  (* root is black *)
    else if is_red t p then begin
      let g = getp t ~sid:"rb:fix.g" p f_parent in
      if g = 0 then set_color t tx p false ~buggy:cfg.fixup_unlogged
      else begin
        let p_is_left = getp t ~sid:"rb:fix.gl" g f_left = p in
        let uncle =
          if p_is_left then getp t ~sid:"rb:fix.u" g f_right
          else getp t ~sid:"rb:fix.u2" g f_left
        in
        if is_red t uncle then begin
          set_color t tx p false ~buggy:cfg.fixup_unlogged;
          set_color t tx uncle false ~buggy:cfg.fixup_unlogged;
          set_color t tx g true ~buggy:cfg.fixup_unlogged;
          fixup t tx g
        end
        else begin
          let z, p =
            if p_is_left && getp t ~sid:"rb:fix.zr" p f_right = z then begin
              rotate_left t tx p;
              (p, getp t ~sid:"rb:fix.np" p f_parent)
            end
            else if (not p_is_left) && getp t ~sid:"rb:fix.zl" p f_left = z
            then begin
              rotate_right t tx p;
              (p, getp t ~sid:"rb:fix.np2" p f_parent)
            end
            else (z, p)
          in
          ignore z;
          set_color t tx p false ~buggy:cfg.fixup_unlogged;
          set_color t tx g true ~buggy:cfg.fixup_unlogged;
          if p_is_left then rotate_right t tx g else rotate_left t tx g
        end
      end
    end

  let find t k =
    let rec go n =
      if n = 0 then None
      else begin
        let key = Ctx.read_u64 t.ctx ~sid:"rb:find.key" (n + f_key) in
        match
          Ctx.if_ t.ctx (Tv.eq key (Tv.const k))
            ~then_:(fun () -> Some n)
            ~else_:(fun () -> None)
        with
        | Some n -> Some n
        | None ->
          if Tv.value key > k then go (getp t ~sid:"rb:find.left" n f_left)
          else go (getp t ~sid:"rb:find.right" n f_right)
      end
    in
    go (root t)

  let value_of t n =
    let v = Ctx.read_bytes t.ctx ~sid:"rb:read.value" (n + f_val) 8 in
    let s = Value.strip (Tv.blob_value v) in
    if s = "" then None else Some s

  let insert t k v =
    match find t k with
    | Some n ->
      Pmdk.Tx.run t.pool (fun tx ->
          Pmdk.Tx.add_range tx (n + f_val) 8;
          Ctx.write_bytes t.ctx ~sid:"rb:insert.upsert" (n + f_val)
            (Tv.blob (Value.pad val_len v)));
      Output.Ok
    | None ->
      Pmdk.Tx.run t.pool (fun tx ->
          (* fresh node: red, value set, parented below *)
          let z = Pmdk.Alloc.zalloc t.pool node_len in
          set t ~sid:"rb:insert.red" z f_red 1;
          set t ~sid:"rb:insert.key" z f_key k;
          Ctx.write_bytes t.ctx ~sid:"rb:insert.value" (z + f_val)
            (Tv.blob (Value.pad val_len v));
          Ctx.persist t.ctx ~sid:"rb:insert.node_persist" z node_len;
          (* BST attach *)
          let rec place n =
            let key = get t ~sid:"rb:insert.probe" n f_key in
            if k < key then begin
              let l = getp t ~sid:"rb:insert.l" n f_left in
              if l = 0 then begin
                set t ~sid:"rb:insert.parent" z f_parent n;
                Ctx.persist t.ctx ~sid:"rb:insert.parent_persist"
                  (z + f_parent) 8;
                (* BUG when [link_unlogged] (bug 43, C-A). *)
                log_field t tx n f_left ~skip:cfg.link_unlogged;
                set t ~sid:"rb:insert.attach_l" n f_left z
              end
              else place l
            end
            else begin
              let r = getp t ~sid:"rb:insert.r" n f_right in
              if r = 0 then begin
                set t ~sid:"rb:insert.parent2" z f_parent n;
                Ctx.persist t.ctx ~sid:"rb:insert.parent2_persist"
                  (z + f_parent) 8;
                log_field t tx n f_right ~skip:cfg.link_unlogged;
                set t ~sid:"rb:insert.attach_r" n f_right z
              end
              else place r
            end
          in
          let rt = root t in
          if rt = 0 then begin
            set t ~sid:"rb:insert.root_black" z f_red 0;
            Ctx.persist t.ctx ~sid:"rb:insert.root_black_persist" (z + f_red) 8;
            Pmdk.Tx.add_range tx (root_slot t) 8;
            set t ~sid:"rb:insert.root" (root_slot t) 0 z
          end
          else begin
            place rt;
            fixup t tx z
          end);
      Output.Ok

  let update t k v =
    match find t k with
    | Some n when value_of t n <> None ->
      Pmdk.Tx.run t.pool (fun tx ->
          Pmdk.Tx.add_range tx (n + f_val) 8;
          Ctx.write_bytes t.ctx ~sid:"rb:update.value" (n + f_val)
            (Tv.blob (Value.pad val_len v)));
      Output.Ok
    | Some _ | None -> Output.Not_found

  (* Tombstone delete: clear the value; a later insert revives it. *)
  let delete t k =
    match find t k with
    | Some n when value_of t n <> None ->
      Pmdk.Tx.run t.pool (fun tx ->
          Pmdk.Tx.add_range tx (n + f_val) 8;
          Ctx.write_bytes t.ctx ~sid:"rb:delete.tombstone" (n + f_val)
            (Tv.blob (String.make 8 '\000')));
      Output.Ok
    | Some _ | None -> Output.Not_found

  let query t k =
    match find t k with
    | Some n ->
      (match value_of t n with
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

let make ?(cfg = rb_cfg) ?(name = "rb-tree") () : Witcher.Store_intf.instance =
  let module M = Make (struct let cfg = cfg let name = name end) in
  (module M)

let buggy () = make ~cfg:rb_cfg ()
let aga () = make ~cfg:aga_cfg ~name:"rb-tree-aga" ()
let fixed () = make ~cfg:fixed_cfg ()
