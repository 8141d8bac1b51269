(* Persistent queue — the PMDK example of §7.7 (non-key-value programs).
   A ring buffer with persistent head/tail cursors. The paper found no
   bugs in the queue; it serves as the second non-KV target for the
   extended template driver.

   Operation mapping: Insert enqueues the value, Delete dequeues (and
   returns the dequeued value), Query peeks at the front, Scan is the
   example's "print" operation listing the live contents front-to-back.

   Crash consistency: a slot is persisted before the tail cursor that
   makes it visible (the cursor is the guardian); dequeue only moves the
   head cursor. Both cursor stores are single atomic words. *)

open Nvm
module Op = Witcher.Op
module Output = Witcher.Output

let capacity = 1024
let val_len = 8

module M = struct
  let name = "p-queue"
  let pool_size = 2 * 1024 * 1024
  let supports_scan = true

  type t = {
    ctx : Ctx.t;
    pool : Pmdk.Pool.t;
  }

  (* root object: head(8) | tail(8); buffer allocated behind it *)

  let create ctx =
    let pool = Pmdk.Pool.create ctx ~root_size:16 in
    let t = { ctx; pool } in
    let buf = Pmdk.Alloc.zalloc pool (capacity * val_len) in
    let r = Pmdk.Pool.root pool in
    (* stash the buffer pointer right after the root object fields by
       convention: head | tail live in the root object, the buffer is the
       first allocation, so its address is deterministic; we keep it in
       the pool header's root_size slot-free area via a third word *)
    ignore buf;
    Ctx.persist ctx ~sid:"pq:create.persist" r 16;
    t

  let open_ ctx =
    let pool = Pmdk.Pool.open_ ctx in
    { ctx; pool }

  (* The buffer is the first allocation after the 16-byte root object. *)
  let buf_addr t =
    Pmdk.Pool.root t.pool + 16 + Pmdk.Layout.block_header

  let head t = Ctx.read_u64 t.ctx ~sid:"pq:head" (Pmdk.Pool.root t.pool)
  let tail t = Ctx.read_u64 t.ctx ~sid:"pq:tail" (Pmdk.Pool.root t.pool + 8)

  let slot_addr t pos = buf_addr t + (pos mod capacity * val_len)

  let enqueue t v =
    let h = head t and tl = tail t in
    if Tv.value tl - Tv.value h >= capacity then Output.Fail "full"
    else begin
      let a = slot_addr t (Tv.value tl) in
      Ctx.write_bytes t.ctx ~sid:"pq:enqueue.slot" a
        (Tv.blob (Value.pad val_len v));
      Ctx.persist t.ctx ~sid:"pq:enqueue.slot_persist" a val_len;
      Ctx.write_u64 t.ctx ~sid:"pq:enqueue.tail" (Pmdk.Pool.root t.pool + 8)
        (Tv.add tl Tv.one);
      Ctx.persist t.ctx ~sid:"pq:enqueue.tail_persist"
        (Pmdk.Pool.root t.pool + 8) 8;
      Output.Ok
    end

  let front t ~found =
    let h = head t and tl = tail t in
    Ctx.if_ t.ctx (Tv.lt h tl)
      ~then_:(fun () ->
          let a = slot_addr t (Tv.value h) in
          let v =
            Value.strip
              (Tv.blob_value
                 (Ctx.read_bytes t.ctx ~sid:"pq:front.slot" a val_len))
          in
          Some (found h v))
      ~else_:(fun () -> None)

  let dequeue t =
    match
      front t ~found:(fun h v ->
          Ctx.write_u64 t.ctx ~sid:"pq:dequeue.head" (Pmdk.Pool.root t.pool)
            (Tv.add h Tv.one);
          Ctx.persist t.ctx ~sid:"pq:dequeue.persist" (Pmdk.Pool.root t.pool) 8;
          v)
    with
    | Some v -> Output.Found v
    | None -> Output.Not_found

  let peek t =
    match front t ~found:(fun _ v -> v) with
    | Some v -> Output.Found v
    | None -> Output.Not_found

  let print t =
    let h = head t and tl = tail t in
    Ctx.with_guard t.ctx (Taint.union (Tv.taint h) (Tv.taint tl)) (fun () ->
        let out = ref [] in
        for pos = Tv.value tl - 1 downto Tv.value h do
          let a = slot_addr t pos in
          out :=
            Value.strip
              (Tv.blob_value
                 (Ctx.read_bytes t.ctx ~sid:"pq:print.slot" a val_len))
            :: !out
        done;
        Output.Vals !out)

  let exec t op =
    match op with
    | Op.Insert (_, v) -> enqueue t v
    | Op.Update (_, v) -> enqueue t v
    | Op.Delete _ -> dequeue t
    | Op.Query _ -> peek t
    | Op.Scan _ -> print t
end

let make () : Witcher.Store_intf.instance = (module M)
let buggy = make
let fixed = make
