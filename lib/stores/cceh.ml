(* CCEH — Cacheline-Conscious Extendible Hashing (Nam et al., FAST '19;
   paper row "CCEH", bugs 24-25). A directory of 2^G segment pointers
   indexed by the top G bits of the hash; each segment holds fixed slots
   and a local depth. Splitting a segment rewrites 2^(G - L) directory
   entries; doubling the directory bumps G.

   Key 0 is the empty sentinel (workload keys start at 1); a slot is
   claimed by persisting the value before the key, and readers validate
   the key before reading the value (guarded protection).

   Seeded defects:
   - [split_atomic] (bug 24, C-A): the split *moves* entries — slots are
     invalidated in the old segment before the new segments are durable,
     and only the first half of the rewritten directory entries is
     flushed; a crash strands directory entries on a gutted segment.
   - [depth_order]  (bug 25, C-A): the old segment's local depth is
     bumped and persisted before the directory rewrite; after a crash the
     split looks complete, later splits compute the wrong directory
     range, and inserts fail — the "partial inconsistency is never
     recovered / unexpected op failure" of the paper.

   The fixed variant splits copy-on-write (the old segment keeps its
   entries), publishes each directory entry with an atomic persisted
   store, and doubles the directory behind a single atomic root update. *)

open Nvm
module Op = Witcher.Op
module Output = Witcher.Output

type cfg = {
  split_atomic : bool;
  depth_order : bool;
}

let buggy_cfg = { split_atomic = true; depth_order = true }
let fixed_cfg = { split_atomic = false; depth_order = false }

let slots = 16
let probe_window = 8
let slot_len = 16  (* key 8 | value 8 *)
let seg_header = 16  (* local depth | pad *)
let seg_len = seg_header + (slots * slot_len)
let initial_depth = 2
let hash_bits = 30
let val_len = 8

let hash k = (k * 0x9E3779B1) land ((1 lsl hash_bits) - 1)

module Make (C : sig val cfg : cfg end) = struct
  let name = "cceh"
  let pool_size = 8 * 1024 * 1024
  let supports_scan = false

  let cfg = C.cfg

  type t = {
    ctx : Ctx.t;
    pool : Pmdk.Pool.t;
  }

  (* root object: dir ptr | global depth (updated together, one 16B store) *)
  let root_dir t =
    let r = Pmdk.Pool.root t.pool in
    let dir = Tv.value (Ctx.read_ptr t.ctx ~sid:"cceh:root.dir" r) in
    let gd = Tv.value (Ctx.read_u64 t.ctx ~sid:"cceh:root.gd" (r + 8)) in
    (dir, gd)

  let set_root t dir gd ~sid =
    let r = Pmdk.Pool.root t.pool in
    let b = Bytes.create 16 in
    Bytes.set_int64_le b 0 (Int64.of_int dir);
    Bytes.set_int64_le b 8 (Int64.of_int gd);
    Ctx.write_bytes t.ctx ~sid r (Tv.blob (Bytes.to_string b));
    Ctx.persist t.ctx ~sid:(sid ^ "_persist") r 16

  let slot_addr seg i = seg + seg_header + (i * slot_len)

  let local_depth t seg =
    Tv.value (Ctx.read_u64 t.ctx ~sid:"cceh:seg.depth" seg)

  let alloc_segment t ~depth =
    let seg = Pmdk.Alloc.zalloc t.pool seg_len in
    Ctx.write_u64 t.ctx ~sid:"cceh:mkseg.depth" seg (Tv.const depth);
    Ctx.persist t.ctx ~sid:"cceh:mkseg.persist" seg 8;
    seg

  let dir_entry_addr dir idx = dir + (idx * 8)

  let create_table t =
    let n = 1 lsl initial_depth in
    let dir = Pmdk.Alloc.zalloc t.pool (n * 8) in
    for i = 0 to n - 1 do
      let seg = alloc_segment t ~depth:initial_depth in
      Ctx.write_u64 t.ctx ~sid:"cceh:create.dirent" (dir_entry_addr dir i)
        (Tv.const seg)
    done;
    Ctx.persist t.ctx ~sid:"cceh:create.dir_persist" dir (n * 8);
    set_root t dir initial_depth ~sid:"cceh:create.root"

  let create ctx =
    let pool = Pmdk.Pool.create ctx ~root_size:16 in
    let t = { ctx; pool } in
    create_table t;
    t

  (* Directory recovery (fixed variant only — its absence in the original
     is part of bug 25): a crash mid-split can leave a chunk of directory
     entries partly rewritten. The coarsest (minimum-depth) segment of a
     chunk is its pre-split owner, and the whole chunk rolls back to it;
     the old segment still holds every entry, since fixed splits are
     copy-on-write. A chunk is sized from its entries' coarsest depth,
     not its first entry's: a crash that persists [s0, s0, s1] of a
     4-entry rewrite leaves [s0, s0, s1, old], and a chunk sized from
     [s0]'s deeper depth would roll back only [s1, old]. So the aligned
     block widens to its coarsest depth until that depth is stable. *)
  let recover_directory t =
    let dir, gd = root_dir t in
    let n = 1 lsl gd in
    let entry j =
      Tv.value
        (Ctx.read_u64 t.ctx ~sid:"cceh:recover.ent" (dir_entry_addr dir j))
    in
    let chunk_of ld = max 1 (1 lsl (gd - max 0 (min gd ld))) in
    let rec fix idx =
      if idx < n then begin
        let seg = entry idx in
        let coarsest = ref seg and coarsest_ld = ref (local_depth t seg) in
        let rec settle chunk =
          let first = idx land lnot (chunk - 1) in
          for j = first to first + chunk - 1 do
            let s = entry j in
            if s <> !coarsest then begin
              let l = local_depth t s in
              if l < !coarsest_ld then begin
                coarsest := s;
                coarsest_ld := l
              end
            end
          done;
          let wider = chunk_of !coarsest_ld in
          if wider > chunk then settle wider else (first, chunk)
        in
        let first, chunk = settle (chunk_of !coarsest_ld) in
        let dirty = ref false in
        for j = first to first + chunk - 1 do
          if entry j <> !coarsest then begin
            dirty := true;
            Ctx.write_u64 t.ctx ~sid:"cceh:recover.fix" (dir_entry_addr dir j)
              (Tv.const !coarsest)
          end
        done;
        if !dirty then
          Ctx.persist t.ctx ~sid:"cceh:recover.persist"
            (dir_entry_addr dir first) (chunk * 8);
        fix (first + chunk)
      end
    in
    fix 0

  let open_ ctx =
    let pool = Pmdk.Pool.open_ ctx in
    let t = { ctx; pool } in
    let r = Pmdk.Pool.root pool in
    if not (Tv.to_bool (Ctx.read_u64 ctx ~sid:"cceh:open.dir" r)) then
      create_table t
    else if not (cfg.split_atomic || cfg.depth_order) then
      recover_directory t;
    t

  let dir_index gd h = h lsr (hash_bits - gd)

  let segment_for t k =
    let dir, gd = root_dir t in
    let idx = dir_index gd (hash k) in
    let seg =
      Tv.value
        (Ctx.read_ptr t.ctx ~sid:"cceh:lookup.dirent" (dir_entry_addr dir idx))
    in
    (dir, gd, idx, seg)

  (* Probe the window for [k]; calls [found] under the key guard. *)
  let probe_find t seg k ~found =
    let start = hash k land (slots - 1) in
    let rec go i =
      if i >= probe_window then None
      else begin
        let a = slot_addr seg ((start + i) land (slots - 1)) in
        let key = Ctx.read_u64 t.ctx ~sid:"cceh:probe.key" a in
        match
          Ctx.if_ t.ctx (Tv.eq key (Tv.const k))
            ~then_:(fun () -> Some (found a))
            ~else_:(fun () -> None)
        with
        | Some r -> Some r
        | None -> go (i + 1)
      end
    in
    go 0

  let read_value t a =
    Value.strip
      (Tv.blob_value (Ctx.read_bytes t.ctx ~sid:"cceh:read.value" (a + 8) 8))

  (* Claim an empty slot: value first, then the guardian key. *)
  let write_slot t a k v =
    Ctx.write_bytes t.ctx ~sid:"cceh:insert.value" (a + 8)
      (Tv.blob (Value.pad val_len v));
    Ctx.persist t.ctx ~sid:"cceh:insert.value_persist" (a + 8) 8;
    Ctx.write_u64 t.ctx ~sid:"cceh:insert.key" a (Tv.const k);
    Ctx.persist t.ctx ~sid:"cceh:insert.key_persist" a 8

  let try_insert_seg t seg k v =
    let start = hash k land (slots - 1) in
    let rec go i =
      if i >= probe_window then false
      else begin
        let a = slot_addr seg ((start + i) land (slots - 1)) in
        let key = Ctx.read_u64 t.ctx ~sid:"cceh:insert.probe" a in
        if not (Tv.to_bool key) then begin
          write_slot t a k v;
          true
        end
        else go (i + 1)
      end
    in
    go 0

  (* Rewrite every directory entry in [idx]'s chunk that points at the old
     segment. [flush_all] = false reproduces bug 24's missing flush. *)
  let rewrite_dir t dir gd ld old_seg s0 s1 ~flush_all =
    let chunk = 1 lsl (gd - ld) in
    (* First entry of the chunk: clear the low gd-ld bits. *)
    let some_idx =
      (* find one index pointing at old_seg by scanning (bounded) *)
      let n = 1 lsl gd in
      let rec find i =
        if i >= n then 0
        else if
          Tv.value
            (Ctx.read_u64 t.ctx ~sid:"cceh:split.scan" (dir_entry_addr dir i))
          = old_seg
        then i
        else find (i + 1)
      in
      find 0
    in
    let first = some_idx land lnot (chunk - 1) in
    for j = 0 to chunk - 1 do
      let idx = first + j in
      (* Lower half of the chunk -> s0, upper half -> s1. *)
      let target = if j < chunk / 2 then s0 else s1 in
      Ctx.write_u64 t.ctx ~sid:"cceh:split.dirent" (dir_entry_addr dir idx)
        (Tv.const target);
      if flush_all || j < chunk / 2 then
        Ctx.flush t.ctx ~sid:"cceh:split.dirent_flush" (dir_entry_addr dir idx)
    done;
    Ctx.fence t.ctx ~sid:"cceh:split.dirent_fence"

  let split t k =
    let dir, gd, _idx, seg = segment_for t k in
    let ld = local_depth t seg in
    if ld >= gd then begin
      (* Double the directory: copy every entry twice, publish with one
         atomic root update. Crashing in between leaves the old root. *)
      let n = 1 lsl gd in
      let ndir = Pmdk.Alloc.zalloc t.pool (2 * n * 8) in
      for i = 0 to n - 1 do
        let s =
          Ctx.read_u64 t.ctx ~sid:"cceh:double.read" (dir_entry_addr dir i)
        in
        Ctx.write_u64 t.ctx ~sid:"cceh:double.lo" (dir_entry_addr ndir (2 * i)) s;
        Ctx.write_u64 t.ctx ~sid:"cceh:double.hi"
          (dir_entry_addr ndir ((2 * i) + 1)) s
      done;
      Ctx.persist t.ctx ~sid:"cceh:double.persist" ndir (2 * n * 8);
      set_root t ndir (gd + 1) ~sid:"cceh:double.root"
    end
    else begin
      (* Segment split. Entries are distributed by the (ld+1)-th hash bit. *)
      let s0 = alloc_segment t ~depth:(ld + 1) in
      let s1 = alloc_segment t ~depth:(ld + 1) in
      if cfg.depth_order then begin
        (* BUG (bug 25, C-A): the old segment's depth is bumped and made
           durable before the directory changes; a crash leaves a segment
           that claims to be split while the directory disagrees. *)
        Ctx.write_u64 t.ctx ~sid:"cceh:split.depth_early" seg (Tv.const (ld + 1));
        Ctx.persist t.ctx ~sid:"cceh:split.depth_early_persist" seg 8
      end;
      for i = 0 to slots - 1 do
        let a = slot_addr seg i in
        let key = Ctx.read_u64 t.ctx ~sid:"cceh:split.key" a in
        Ctx.when_ t.ctx key (fun () ->
            let v = Ctx.read_bytes t.ctx ~sid:"cceh:split.value" (a + 8) 8 in
            let bit = (hash (Tv.value key) lsr (hash_bits - ld - 1)) land 1 in
            let target = if bit = 0 then s0 else s1 in
            let start = hash (Tv.value key) land (slots - 1) in
            let rec place j =
              if j < slots then begin
                let b = slot_addr target ((start + j) land (slots - 1)) in
                let kk = Ctx.read_u64 t.ctx ~sid:"cceh:split.probe" b in
                if not (Tv.to_bool kk) then begin
                  Ctx.write_bytes t.ctx ~sid:"cceh:split.copy_val" (b + 8) v;
                  Ctx.write_u64 t.ctx ~sid:"cceh:split.copy_key" b key
                end
                else place (j + 1)
              end
            in
            place 0;
            if cfg.split_atomic then
              (* BUG (bug 24, C-A): the entry is *moved* — the source slot
                 is invalidated while the copy may still be volatile. *)
              Ctx.write_u64 t.ctx ~sid:"cceh:split.invalidate" a Tv.zero)
      done;
      if not cfg.split_atomic then begin
        Ctx.persist t.ctx ~sid:"cceh:split.s0_persist" s0 seg_len;
        Ctx.persist t.ctx ~sid:"cceh:split.s1_persist" s1 seg_len
      end
      else
        Ctx.fence t.ctx ~sid:"cceh:split.fence_only";
      rewrite_dir t dir gd ld seg s0 s1 ~flush_all:(not cfg.split_atomic)
    end

  let insert t k v =
    let _, _, _, seg0 = segment_for t k in
    match
      probe_find t seg0 k ~found:(fun a ->
          Ctx.write_bytes t.ctx ~sid:"cceh:insert.upsert" (a + 8)
            (Tv.blob (Value.pad val_len v));
          Ctx.persist t.ctx ~sid:"cceh:insert.upsert_persist" (a + 8) 8)
    with
    | Some () -> Output.Ok
    | None ->
    let rec attempt tries =
      if tries > 6 then Output.Fail "full"
      else begin
        let _, _, _, seg = segment_for t k in
        if try_insert_seg t seg k v then Output.Ok
        else begin
          split t k;
          attempt (tries + 1)
        end
      end
    in
    attempt 0

  let update t k v =
    let _, _, _, seg = segment_for t k in
    match
      probe_find t seg k ~found:(fun a ->
          Ctx.write_bytes t.ctx ~sid:"cceh:update.value" (a + 8)
            (Tv.blob (Value.pad val_len v));
          Ctx.persist t.ctx ~sid:"cceh:update.persist" (a + 8) 8)
    with
    | Some () -> Output.Ok
    | None -> Output.Not_found

  let delete t k =
    let _, _, _, seg = segment_for t k in
    match
      probe_find t seg k ~found:(fun a ->
          Ctx.write_u64 t.ctx ~sid:"cceh:delete.key" a Tv.zero;
          Ctx.persist t.ctx ~sid:"cceh:delete.persist" a 8)
    with
    | Some () -> Output.Ok
    | None -> Output.Not_found

  let query t k =
    let _, _, _, seg = segment_for t k in
    match probe_find t seg k ~found:(fun a -> read_value t a) with
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
