(* The simulated NVM pool: a bounded, byte-addressable image. In PMDK an
   NVM image is a regular file holding the persistent heap (§4.3 fn. 3);
   here it is sparse, with one representation: a two-level directory
   (4 KB pages of 64 line slots) of 64-byte line buffers over an optional
   read-only base pool. A line held nowhere along the chain reads as zero.
   [create] allocates an empty directory and the first write to a line
   allocates that line (and its page), so a pool costs the lines written
   to it: the stores write kilobytes of their 2-16 MB pools.

   Base-less pools back live executions (record / oracle runs) and
   [Crash_sim]'s persisted image. A view ([cow]) is an empty directory
   over a base pool and backs a crash image: reads fall through to the
   base, and the first write to a line copies that 64-byte line of the
   base into the view, so an image costs only the lines the resumed
   execution dirties. The base MUST stay unmodified while a view over it
   lives; [Crash_sim] guarantees this by checking each image before
   feeding the next trace event, and [copy] detaches a view into an
   independent base-less pool. A chain is at most two deep: [cow] of a
   view detaches it first, so a read costs at most two array loads per
   pool on the chain and allocates nothing.

   A held line costs its payload, a block header and a directory slot, so
   a fully written pool takes about 1.25x its size. Only [snapshot],
   [flatten], [of_snapshot] and a base-less [digest] cost O(size); only
   tests call them.

   Out-of-bounds accesses raise [Fault], the simulated segmentation fault:
   resuming from a corrupted crash image may follow garbage pointers, and
   the paper treats such visible crashes as detected inconsistencies. *)

exception Fault of { addr : int; len : int }

let line_size = 64
let line_of_addr addr = addr lsr 6
let page_lines = 64  (* lines per directory page *)

(* Sentinels, never written: an absent line reads as zero, and an absent
   page holds only absent lines. *)
let no_line = Bytes.make line_size '\000'
let no_page = Array.make page_lines no_line

type t = {
  size : int;
  mutable dir : Bytes.t array array;
  (* page -> line slot -> line buffer; pages past its end are absent. It
     grows (doubling) to the highest page written, so the untouched tail
     of a pool costs nothing: the stores write under 10 pages, all in its
     first 300 KB *)
  base : t option;            (* base-less; read-only while this view lives *)
  mutable lines : int;        (* lines this pool holds itself *)
  mutable cow_bytes : int;    (* bytes of them copied from [base] *)
}

let make ?base size = { size; dir = [||]; base; lines = 0; cow_bytes = 0 }

let create size =
  if size <= 0 then invalid_arg "Pmem.create";
  make size

let size t = t.size

let check t addr len =
  if addr < 0 || len < 0 || addr + len > t.size then
    raise (Fault { addr; len })

(* ---------- line lookup ---------- *)

(* Page [p] of [t]'s own directory, or [no_page]. *)
let[@inline] page t p = if p < Array.length t.dir then t.dir.(p) else no_page

(* The buffer [t] itself holds for [line], or [no_line]. *)
let[@inline] own t line = (page t (line lsr 6)).(line land 63)

(* The buffer [line] reads from: [t]'s own, else its base's. *)
let[@inline] visible t line =
  let b = own t line in
  if b != no_line then b
  else match t.base with None -> b | Some base -> own base line

(* [t]'s writable buffer for [line], allocated on first write: zeroed in a
   base-less pool, a copy of the base's line in a view. A partial last
   line gets a buffer of its in-bounds length. *)
let writable t line =
  let p = line lsr 6 in
  let n = Array.length t.dir in
  if p >= n then begin
    let pages = (t.size + 4095) / 4096 in
    let dir = Array.make (min pages (max (p + 1) (2 * n))) no_page in
    Array.blit t.dir 0 dir 0 n;
    t.dir <- dir
  end;
  if t.dir.(p) == no_page then t.dir.(p) <- Array.make page_lines no_line;
  let pg = t.dir.(p) in
  let b = pg.(line land 63) in
  if b != no_line then b
  else begin
    let len = min line_size (t.size - (line lsl 6)) in
    let b =
      match t.base with
      | None -> Bytes.make len '\000'
      | Some base ->
        t.cow_bytes <- t.cow_bytes + len;
        Bytes.sub (own base line) 0 len
    in
    pg.(line land 63) <- b;
    t.lines <- t.lines + 1;
    b
  end

(* [f line buf] for every line held along [t]'s chain ([own_only]: by [t]
   itself), in ascending line order, skipping absent pages whole. *)
let iter_lines ?(own_only = false) t f =
  let base = if own_only then None else t.base in
  let n = Array.length t.dir in
  let n = match base with Some b -> max n (Array.length b.dir) | None -> n in
  for p = 0 to n - 1 do
    let pg = page t p in
    let under = match base with Some b -> page b p | None -> no_page in
    if pg != no_page || under != no_page then
      for i = 0 to page_lines - 1 do
        let b = if pg.(i) != no_line then pg.(i) else under.(i) in
        if b != no_line then f ((p lsl 6) + i) b
      done
  done

(* ---------- accesses ---------- *)

let read_bytes t addr len =
  check t addr len;
  let out = Bytes.create len in
  let rec go addr pos =
    if pos < len then begin
      let chunk = min (len - pos) (line_size - (addr land 63)) in
      Bytes.blit (visible t (addr lsr 6)) (addr land 63) out pos chunk;
      go (addr + chunk) (pos + chunk)
    end
  in
  go addr 0;
  Bytes.unsafe_to_string out

(* Write [s[off .. off+len)] at [addr] without building a substring; the
   Trace arena uses this to replay store payloads zero-copy. *)
let write_sub t addr s off len =
  check t addr len;
  if off < 0 || len < 0 || off + len > String.length s then
    invalid_arg "Pmem.write_sub";
  let rec go addr pos =
    if pos < len then begin
      let chunk = min (len - pos) (line_size - (addr land 63)) in
      Bytes.blit_string s (off + pos) (writable t (addr lsr 6)) (addr land 63)
        chunk;
      go (addr + chunk) (pos + chunk)
    end
  in
  go addr 0

let write_bytes t addr s = write_sub t addr s 0 (String.length s)

let read_u64 t addr =
  check t addr 8;
  if addr land 63 <= line_size - 8 then
    Int64.to_int (Bytes.get_int64_le (visible t (addr lsr 6)) (addr land 63))
  else Int64.to_int (String.get_int64_le (read_bytes t addr 8) 0)

let write_u64 t addr v =
  check t addr 8;
  if addr land 63 <= line_size - 8 then
    Bytes.set_int64_le (writable t (addr lsr 6)) (addr land 63) (Int64.of_int v)
  else begin
    let tmp = Bytes.create 8 in
    Bytes.set_int64_le tmp 0 (Int64.of_int v);
    write_bytes t addr (Bytes.unsafe_to_string tmp)
  end

let read_u8 t addr =
  check t addr 1;
  Char.code (Bytes.get (visible t (addr lsr 6)) (addr land 63))

let write_u8 t addr v =
  check t addr 1;
  Bytes.set (writable t (addr lsr 6)) (addr land 63) (Char.chr (v land 0xff))

(* ---------- whole-pool operations ---------- *)

(* The pool's contents as one buffer: O(size), for tests. *)
let flatten t =
  let out = Bytes.make t.size '\000' in
  iter_lines t (fun line b -> Bytes.blit b 0 out (line lsl 6) (Bytes.length b));
  out

let snapshot t = Bytes.unsafe_to_string (flatten t)

let of_snapshot s =
  let t = create (String.length s) in
  write_bytes t 0 s;
  t

(* An independent base-less pool with the same contents, O(lines): deep
   copies every line visible in [t], detaching a view from its base. *)
let copy t =
  let c = make t.size in
  iter_lines t (fun line b ->
      Bytes.blit b 0 (writable c line) 0 (Bytes.length b));
  c

(* Copy-on-write view of [t]: an empty directory over it. [t]'s bytes MUST
   NOT change while the view is in use (writes to the view never touch
   [t]). A view of a view is a view of its detached copy. *)
let cow t =
  match t.base with
  | None -> make ~base:t t.size
  | Some _ -> make ~base:(copy t) t.size

let is_cow t = Option.is_some t.base

(* Lines [t] holds itself: what a snapshot or an image costs. *)
let lines t = t.lines

(* Lines copied into a view so far (0 for a base-less pool). *)
let overlay_lines t = if is_cow t then t.lines else 0

(* Bytes a view copied from its base: O(dirty lines), compared to
   [size t] for a flat copy. *)
let cow_bytes t = t.cow_bytes

(* ---------- content digests ---------- *)

(* FNV-1a-style 64-bit mixing (widths wrap to OCaml's 63-bit int, which
   is fine: digests are only compared for equality). *)
let mix h v = (h lxor v) * 0x100000001b3

let mix_string h s =
  let len = String.length s in
  let h = ref (mix h len) in
  let b = Bytes.unsafe_of_string s in
  let i = ref 0 in
  while !i + 8 <= len do
    h := mix !h (Int64.to_int (Bytes.get_int64_le b !i));
    i := !i + 8
  done;
  while !i < len do
    h := mix !h (Char.code (String.unsafe_get s !i));
    incr i
  done;
  !h

(* 64-bit content digest. For a view, pass the digest of the base as
   [seed] (Crash_sim maintains it incrementally): only the view's own
   lines are folded in, in ascending line order, so digesting a crash
   image is O(dirty lines), never O(pool_size), and two views over the
   same base with the same own lines get equal digests. For a base-less
   pool the whole image is folded — the O(size) reference path, used by
   tests. *)
let digest ?(seed = 0x1505) t =
  if not (is_cow t) then mix_string seed (snapshot t)
  else begin
    let h = ref seed in
    iter_lines ~own_only:true t (fun line b ->
        h := mix_string (mix !h line) (Bytes.unsafe_to_string b));
    !h
  end
