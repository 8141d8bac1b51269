(* Persistent array — the PMDK example of §7.7 (non-key-value programs).
   A growable cell array: root holds (capacity | cells pointer); growing
   reallocates the cell block and copies.

   Operation mapping (the paper's extended template driver): Insert and
   Update write cell [k mod range] (growing if needed), Delete clears it,
   Query reads it, and Scan is the example's "print" operation — the
   output equivalence anchor — listing all populated cells.

   Seeded defect ([realloc_order], the known bug of §7.7, pmdk#4927
   class): reallocation persists the enlarged capacity *before* the new
   cell pointer is durable; after a crash the capacity promises cells the
   old block does not have, and accesses run off its end. The fixed
   variant publishes (capacity, pointer) with one atomic 16-byte store. *)

open Nvm
module Op = Witcher.Op
module Output = Witcher.Output

type cfg = { realloc_order : bool }

let buggy_cfg = { realloc_order = true }
let fixed_cfg = { realloc_order = false }

let range = 256
let initial_cap = 16
let val_len = 8

module Make (C : sig val cfg : cfg end) = struct
  let name = "p-array"
  let pool_size = 2 * 1024 * 1024
  let supports_scan = true

  let cfg = C.cfg

  type t = {
    ctx : Ctx.t;
    pool : Pmdk.Pool.t;
  }

  (* root object: cap(8) | cells ptr(8) *)

  let mk_cells t n =
    Pmdk.Alloc.zalloc t.pool (n * val_len)

  let publish t cap cells ~sid =
    if cfg.realloc_order then begin
      (* BUG (pmdk#4927 class, C-O/C-A): capacity becomes durable first. *)
      let r = Pmdk.Pool.root t.pool in
      Ctx.write_u64 t.ctx ~sid:(sid ^ ".cap") r (Tv.const cap);
      Ctx.persist t.ctx ~sid:(sid ^ ".cap_persist") r 8;
      Ctx.write_u64 t.ctx ~sid:(sid ^ ".cells") (r + 8) (Tv.const cells);
      Ctx.persist t.ctx ~sid:(sid ^ ".cells_persist") (r + 8) 8
    end
    else begin
      let r = Pmdk.Pool.root t.pool in
      let b = Bytes.create 16 in
      Bytes.set_int64_le b 0 (Int64.of_int cap);
      Bytes.set_int64_le b 8 (Int64.of_int cells);
      Ctx.write_bytes t.ctx ~sid:(sid ^ ".pair") r (Tv.blob (Bytes.to_string b));
      Ctx.persist t.ctx ~sid:(sid ^ ".pair_persist") r 16
    end

  let create ctx =
    let pool = Pmdk.Pool.create ctx ~root_size:16 in
    let t = { ctx; pool } in
    publish t initial_cap (mk_cells t initial_cap) ~sid:"pa:create";
    t

  let open_ ctx =
    let pool = Pmdk.Pool.open_ ctx in
    let t = { ctx; pool } in
    let r = Pmdk.Pool.root pool in
    if not (Tv.to_bool (Ctx.read_u64 ctx ~sid:"pa:open.cap" r)) then
      publish t initial_cap (mk_cells t initial_cap) ~sid:"pa:recover";
    t

  let geometry t =
    let r = Pmdk.Pool.root t.pool in
    let cap = Ctx.read_u64 t.ctx ~sid:"pa:root.cap" r in
    let cells = Ctx.read_ptr t.ctx ~sid:"pa:root.cells" (r + 8) in
    (Tv.value cap, Tv.value cells, Taint.union (Tv.taint cap) (Tv.taint cells))

  let cell_addr cells i = cells + (i * val_len)

  (* Grow to at least [need] cells: fresh block, copy, publish. *)
  let grow t need =
    let cap, cells, _ = geometry t in
    let rec next n = if n >= need then n else next (2 * n) in
    let ncap = next (max cap 1) in
    let ncells = mk_cells t ncap in
    for i = 0 to cap - 1 do
      let v = Ctx.read_bytes t.ctx ~sid:"pa:grow.read" (cell_addr cells i) val_len in
      Ctx.write_bytes t.ctx ~sid:"pa:grow.copy" (cell_addr ncells i) v
    done;
    if not cfg.realloc_order then
      Ctx.persist t.ctx ~sid:"pa:grow.copy_persist" ncells (ncap * val_len);
    publish t ncap ncells ~sid:"pa:grow"

  let idx_of k = k mod range

  let set t k v ~sid =
    let i = idx_of k in
    let cap, cells, g = geometry t in
    Ctx.with_guard t.ctx g (fun () ->
        if i >= cap then begin
          grow t (i + 1);
          let _, cells', _ = geometry t in
          Ctx.write_bytes t.ctx ~sid (cell_addr cells' i)
            (Tv.blob (Value.pad val_len v));
          Ctx.persist t.ctx ~sid:(sid ^ "_persist") (cell_addr cells' i) val_len
        end
        else begin
          Ctx.write_bytes t.ctx ~sid (cell_addr cells i)
            (Tv.blob (Value.pad val_len v));
          Ctx.persist t.ctx ~sid:(sid ^ "_persist") (cell_addr cells i) val_len
        end);
    Output.Ok

  let get t k =
    let i = idx_of k in
    let cap, cells, g = geometry t in
    Ctx.with_guard t.ctx g (fun () ->
        if i >= cap then Output.Not_found
        else begin
          let v =
            Value.strip
              (Tv.blob_value
                 (Ctx.read_bytes t.ctx ~sid:"pa:get.cell" (cell_addr cells i)
                    val_len))
          in
          if v = "" then Output.Not_found else Output.Found v
        end)

  let clear t k =
    let i = idx_of k in
    let cap, cells, g = geometry t in
    Ctx.with_guard t.ctx g (fun () ->
        if i >= cap then Output.Not_found
        else begin
          let old =
            Value.strip
              (Tv.blob_value
                 (Ctx.read_bytes t.ctx ~sid:"pa:clear.read" (cell_addr cells i)
                    val_len))
          in
          if old = "" then Output.Not_found
          else begin
            Ctx.write_bytes t.ctx ~sid:"pa:clear.cell" (cell_addr cells i)
              (Tv.blob (String.make val_len '\000'));
            Ctx.persist t.ctx ~sid:"pa:clear.persist" (cell_addr cells i)
              val_len;
            Output.Ok
          end
        end)

  (* The example's print operation: list every populated cell in order. *)
  let print t =
    let cap, cells, g = geometry t in
    Ctx.with_guard t.ctx g (fun () ->
        let out = ref [] in
        for i = cap - 1 downto 0 do
          let v =
            Value.strip
              (Tv.blob_value
                 (Ctx.read_bytes t.ctx ~sid:"pa:print.cell" (cell_addr cells i)
                    val_len))
          in
          if v <> "" then out := v :: !out
        done;
        Output.Vals !out)

  let exec t op =
    match op with
    | Op.Insert (k, v) -> set t k v ~sid:"pa:set.cell"
    | Op.Update (k, v) -> set t k v ~sid:"pa:update.cell"
    | Op.Delete k -> clear t k
    | Op.Query k -> get t k
    | Op.Scan (_, _) -> print t
end

let make ?(cfg = buggy_cfg) () : Witcher.Store_intf.instance =
  let module M = Make (struct let cfg = cfg end) in
  (module M)

let buggy () = make ~cfg:buggy_cfg ()
let fixed () = make ~cfg:fixed_cfg ()
