(* Inference of likely-correctness conditions (§4.2, Table 2).

   The trace already carries the Persistence Program Dependence Graph: a
   Store event's [s_dd] / [s_cd] are the NVM loads its value / enclosing
   branch guards derive from, and a Load event's [l_cd] are the guards of
   a guarded read. The rules:

   PO1  W(Y) -dd-> R(X)   ==>  P(X) -hb-> W(Y)
   PO2  W(Y) -cd-> R(X)   ==>  P(X) -hb-> W(Y)
   PO3  R(Y) -cd-> R(X)   ==>  P(Y) -hb-> W(X)   (X is a guardian)
   PA1  two guardians X, Y ==>  AP(X, Y)

   A condition is a (watch, req) pair of cells: when a store to [watch]
   is observed, the latest store to [req] must already be persisted —
   otherwise an NVM state where the watch-store persisted and the
   req-store did not violates the condition. For PO1/PO2, watch = Y and
   req = X; for PO3 the guardian is the watched side (watch = X, req = Y).

   Conditions are keyed by dynamic NVM address ranges (cells), like the
   paper, so counts in Table 5 grow with the trace, and the layout is
   what a condition costs. An ordering condition is a dense id (0, 1, ...
   in insertion order) and one entry in each of three flat columns
   indexed by it: req address, req length and rule tag. The watch range
   is where the id is filed — [Windex]'s address and length columns, one
   entry per watched word — and the sites of both sides are the stores'
   sites, which generation reads from the simulator. A guardian is
   likewise an id into an address and a length column. [add_po] dedups
   on (watch range, req range, rule), so two distinct ids are distinct
   conditions: generation dedups an epoch by id. The [po] record is not
   how a condition is kept; it is the view [conds_for] builds for tests.

   The dedup sets matter only while conditions are being discovered.
   [seal] drops them once the last event is fed ([infer] seals before it
   returns, the engine after its last [feed]) and cuts every column to
   its used length; [feed] on a sealed set raises [Invalid_argument]
   instead of inserting duplicates under fresh ids.

   Cost model: the inference walk reads events by index (kind tag + int
   fields + taint arrays) instead of reconstructing them, and the two
   word indexes map an 8-byte word number to a chain of int blocks
   through a directory of fixed-size pages, so an index costs what its
   watched words hold, not the span up to the highest of them.
   [iter_words]/[iter_conds_for]/[iter_guardians_for] are
   allocation-free; [words] and [conds_for] are their list-returning
   forms. *)

type rule = PO1 | PO2 | PO3

let rule_name = function PO1 -> "PO1" | PO2 -> "PO2" | PO3 -> "PO3"

type cell = {
  c_addr : int;
  c_len : int;
}

type po = {
  req : cell;
  rule : rule;
  id : int;  (* dense: the [n_ordering] count when first inserted *)
}

let overlap a1 l1 a2 l2 = a1 < a2 + l2 && a2 < a1 + l1

let words addr len =
  let first = addr lsr 3 and last = (addr + len - 1) lsr 3 in
  List.init (last - first + 1) (fun i -> first + i)

(* Allocation-free [words]: call [f] on each 8-byte word the range
   [addr, addr+len) touches, ascending. *)
let iter_words addr len f =
  for w = addr lsr 3 to (addr + len - 1) lsr 3 do
    f w
  done

(* [a] grown to at least [n] slots (doubling), new slots set to [fill]. *)
let grow_to a n fill =
  if n <= Array.length a then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* Cache-line-blocked word index (FAST-style hierarchical blocking): each
   8-byte pool word maps to a chain of 16-entry blocks, newest block at
   the chain head. An entry's (addr, len, value) lives in flat int arrays
   indexed by slot = block * 16 + j — the crash-generation walk's hot
   probe (overlap test against every condition on a word) is a linear
   scan of one or two 128-byte array stripes instead of a pointer chase
   through cons cells, and the value column is only read on a hit.

   A word's head block is found through a directory of [page]-word
   pages, each allocated when a word in it is first filed: watched words
   are a sparse subset of the pool, and one head array reaching the
   highest of them is mostly empty.

   Iteration order reproduces the cons-list layout this replaces exactly:
   newest entry first within a word (blocks newest-first, entries within
   a block scanned backwards), because candidate ordering feeds the
   image digest sequences the front-end parity property asserts on. *)
module Windex = struct
  let block = 16
  let page_bits = 8
  let page = 1 lsl page_bits

  type t = {
    mutable pages : int array array;  (* word lsr page_bits -> heads;
                                         [||] = no word of it filed *)
    mutable nexts : int array;  (* block id -> older block id, -1 = end *)
    mutable used : int array;   (* block id -> entries filled *)
    mutable addrs : int array;  (* slot = block id * 16 + j *)
    mutable lens : int array;
    mutable vals : int array;
    mutable n_blocks : int;
  }

  let create () =
    { pages = [||]; nexts = [||]; used = [||]; addrs = [||]; lens = [||];
      vals = [||]; n_blocks = 0 }

  (* Newest block of word [w], -1 = none. *)
  let head t w =
    let p = w lsr page_bits in
    if p >= Array.length t.pages then -1
    else begin
      let heads = Array.unsafe_get t.pages p in
      if Array.length heads = 0 then -1
      else Array.unsafe_get heads (w land (page - 1))
    end

  (* The page holding word [w]'s head, allocated on first use. *)
  let heads_of t w =
    let p = w lsr page_bits in
    t.pages <- grow_to t.pages (p + 1) [||];
    if Array.length t.pages.(p) = 0 then t.pages.(p) <- Array.make page (-1);
    t.pages.(p)

  let add t w ~addr ~len v =
    let heads = heads_of t w in
    let i = w land (page - 1) in
    let head = heads.(i) in
    let b =
      if head >= 0 && t.used.(head) < block then head
      else begin
        let b = t.n_blocks in
        t.nexts <- grow_to t.nexts (b + 1) (-1);
        t.used <- grow_to t.used (b + 1) 0;
        t.addrs <- grow_to t.addrs ((b + 1) * block) 0;
        t.lens <- grow_to t.lens ((b + 1) * block) 0;
        t.vals <- grow_to t.vals ((b + 1) * block) 0;
        t.n_blocks <- b + 1;
        t.nexts.(b) <- head;
        t.used.(b) <- 0;
        heads.(i) <- b;
        b
      end
    in
    let s = (b * block) + t.used.(b) in
    t.addrs.(s) <- addr;
    t.lens.(s) <- len;
    t.vals.(s) <- v;
    t.used.(b) <- t.used.(b) + 1

  (* Cut the block columns to the blocks in use, once nothing more will
     be filed: doubling leaves up to half of each unused. *)
  let trim t =
    let nb = t.n_blocks in
    t.nexts <- Array.sub t.nexts 0 nb;
    t.used <- Array.sub t.used 0 nb;
    t.addrs <- Array.sub t.addrs 0 (nb * block);
    t.lens <- Array.sub t.lens 0 (nb * block);
    t.vals <- Array.sub t.vals 0 (nb * block)

  (* Values on word [w] whose range overlaps [addr, addr+len), newest
     first. *)
  let iter_word t w ~addr ~len f =
    let b = ref (head t w) in
    while !b >= 0 do
      let base = !b * block in
      for j = t.used.(!b) - 1 downto 0 do
        let s = base + j in
        if overlap (Array.unsafe_get t.addrs s) (Array.unsafe_get t.lens s)
             addr len
        then f (Array.unsafe_get t.vals s)
      done;
      b := t.nexts.(!b)
    done
end

(* Insert-only open-addressing set of int pairs, the dedup structure of
   the inference walk. Nearly every [add_po] call is a duplicate (one
   load feeds many stores of the same cells), so the per-call cost is
   what the walk's time is made of: a probe here is two array reads —
   no tuple allocation, no polymorphic [Hashtbl.hash] over five boxed
   fields. Keys must be >= 0 (cells pack as [addr * 2^24 + len], both
   bounded by the pool size); empty slots hold [min_int]. *)
module Pair_set = struct
  type t = {
    mutable keys : int array;  (* interleaved: k1 at 2i, k2 at 2i + 1 *)
    mutable count : int;
    mutable mask : int;     (* capacity - 1, capacity a power of two *)
  }

  (* Interleaving puts a probe's two key words on the same cache line;
     with linear probing a short collision run stays within one or two
     lines instead of touching two arrays per slot. *)
  let create cap =
    let cap =
      let c = ref 16 in
      while !c < cap do c := !c * 2 done;
      !c
    in
    { keys = Array.make (2 * cap) min_int; count = 0; mask = cap - 1 }

  let slot s a b =
    let h = (a * 0x9E3779B97F4A7C1) lxor (b * 0xC2B2AE3D27D4EB) in
    (h lxor (h lsr 29)) land s.mask

  let rec add_new s a b =
    let i = ref (slot s a b) in
    let keys = s.keys in
    let res = ref (-1) in
    while !res < 0 do
      let x = Array.unsafe_get keys (2 * !i) in
      if x = min_int then res := 1
      else if x = a && Array.unsafe_get keys ((2 * !i) + 1) = b then res := 0
      else i := (!i + 1) land s.mask
    done;
    !res = 1
    && begin
      keys.(2 * !i) <- a;
      keys.((2 * !i) + 1) <- b;
      s.count <- s.count + 1;
      if 2 * s.count > s.mask then begin
        (* grow to keep the load factor under 1/2 *)
        let okeys = s.keys in
        let cap = 2 * (s.mask + 1) in
        s.keys <- Array.make (2 * cap) min_int;
        s.mask <- cap - 1;
        s.count <- 0;
        for j = 0 to (Array.length okeys / 2) - 1 do
          if okeys.(2 * j) <> min_int then
            ignore (add_new s okeys.(2 * j) okeys.((2 * j) + 1))
        done
      end;
      true
    end
end

(* [addr * 2^24 + len] is injective while both fit 24 bits — pools are a
   few MB. Ranges beyond that (would need a >16MB pool) fall back to a
   key the packing cannot alias. *)
let pack_ok addr len = addr < 0x1000000 && len < 0x1000000
let pack addr len = (addr lsl 24) lor len

type seen = {
  pairs : Pair_set.t;
  (* exact fallback for cells the packing can't represent *)
  wide : (int * int * int * int * int, unit) Hashtbl.t;
  guardians : Pair_set.t;
}

type t = {
  po_index : Windex.t;        (* 8-byte word of watch -> condition ids *)
  guardian_index : Windex.t;  (* word -> guardian ids *)
  (* condition id -> req cell and rule (0 = PO1, 1 = PO2, 2 = PO3) *)
  mutable req_addrs : int array;
  mutable req_lens : int array;
  mutable rules : Bytes.t;
  (* guardian id -> cell *)
  mutable g_addrs : int array;
  mutable g_lens : int array;
  mutable n_guardians : int;
  mutable n_po1 : int;
  mutable n_po2 : int;
  mutable n_po3 : int;
  mutable seen : seen option;  (* dedup state across [feed] calls;
                                  [None] once sealed *)
}

let n_ordering t = t.n_po1 + t.n_po2 + t.n_po3
let n_atomicity t = t.n_guardians * (t.n_guardians - 1) / 2
let n_guardians t = t.n_guardians

let req_addr t id = t.req_addrs.(id)
let req_len t id = t.req_lens.(id)

let rule t id =
  match Bytes.get t.rules id with '\000' -> PO1 | '\001' -> PO2 | _ -> PO3

let guardian_addr t g = t.g_addrs.(g)
let guardian_len t g = t.g_lens.(g)

let seen_add seen ~wa ~wl ~ra ~rl rid =
  if pack_ok wa wl && pack_ok ra rl then
    Pair_set.add_new seen.pairs (pack wa wl) ((pack ra rl * 4) + rid)
  else begin
    let key = (wa, wl, ra, rl, rid) in
    (not (Hashtbl.mem seen.wide key))
    && (Hashtbl.add seen.wide key (); true)
  end

let add_po t seen ~wa ~wl ~ra ~rl rule =
  if not (overlap wa wl ra rl) then begin
    let rid = match rule with PO1 -> 0 | PO2 -> 1 | PO3 -> 2 in
    if seen_add seen ~wa ~wl ~ra ~rl rid then begin
      let id = n_ordering t in
      t.req_addrs <- grow_to t.req_addrs (id + 1) 0;
      t.req_lens <- grow_to t.req_lens (id + 1) 0;
      if id >= Bytes.length t.rules then
        t.rules <- Bytes.extend t.rules 0 (max 1 (Bytes.length t.rules));
      t.req_addrs.(id) <- ra;
      t.req_lens.(id) <- rl;
      Bytes.set t.rules id (Char.chr rid);
      (match rule with
       | PO1 -> t.n_po1 <- t.n_po1 + 1
       | PO2 -> t.n_po2 <- t.n_po2 + 1
       | PO3 -> t.n_po3 <- t.n_po3 + 1);
      for w = wa lsr 3 to (wa + wl - 1) lsr 3 do
        Windex.add t.po_index w ~addr:wa ~len:wl id
      done
    end
  end

let add_guardian t seen ~addr ~len =
  if Pair_set.add_new seen.guardians addr len then begin
    let g = t.n_guardians in
    t.g_addrs <- grow_to t.g_addrs (g + 1) 0;
    t.g_lens <- grow_to t.g_lens (g + 1) 0;
    t.g_addrs.(g) <- addr;
    t.g_lens.(g) <- len;
    t.n_guardians <- g + 1;
    for w = addr lsr 3 to (addr + len - 1) lsr 3 do
      Windex.add t.guardian_index w ~addr ~len g
    done
  end

let create () =
  { po_index = Windex.create (); guardian_index = Windex.create ();
    req_addrs = [||]; req_lens = [||]; rules = Bytes.empty;
    g_addrs = [||]; g_lens = [||];
    n_guardians = 0; n_po1 = 0; n_po2 = 0; n_po3 = 0;
    seen =
      Some
        { pairs = Pair_set.create 8192; wide = Hashtbl.create 16;
          guardians = Pair_set.create 256 } }

(* The condition set is complete: drop the dedup sets, which nothing
   reads after inference, and the growth slack of every column. *)
let seal t =
  t.seen <- None;
  let n = n_ordering t and g = t.n_guardians in
  t.req_addrs <- Array.sub t.req_addrs 0 n;
  t.req_lens <- Array.sub t.req_lens 0 n;
  t.rules <- Bytes.sub t.rules 0 n;
  t.g_addrs <- Array.sub t.g_addrs 0 g;
  t.g_lens <- Array.sub t.g_lens 0 g;
  Windex.trim t.po_index;
  Windex.trim t.guardian_index

(* Process the event at trace index [i]. The only trace reads are of [i]
   itself and of the loads in its taints. A windowed run feeds each op's
   events before any segment of the op can retire, so only a taint
   carried over from an op further back than the window reaches a
   retired load, and that raises [Nvm.Trace.Retired]. Feeding
   every index once, in order, is exactly the batch walk: condition
   discovery depends only on the prefix up to [i]. *)
let feed t (trace : Nvm.Trace.t) i =
  let seen =
    match t.seen with
    | Some s -> s
    | None -> invalid_arg "Infer.feed: the condition set is sealed"
  in
  let k_load = Nvm.Trace.k_load in
  let k = Nvm.Trace.kind_at trace i in
  if k = Nvm.Trace.k_store then begin
    let wa = Nvm.Trace.addr_at trace i and wl = Nvm.Trace.len_at trace i in
    let member rule tid =
      if Nvm.Trace.kind_at trace tid = k_load then
        add_po t seen ~wa ~wl ~ra:(Nvm.Trace.addr_at trace tid)
          ~rl:(Nvm.Trace.len_at trace tid) rule
    in
    Nvm.Taint.iter (member PO1) (Nvm.Trace.dd_at trace i);
    Nvm.Taint.iter (member PO2) (Nvm.Trace.cd_at trace i)
  end
  else if k = k_load then begin
    let cd = Nvm.Trace.cd_at trace i in
    if not (Nvm.Taint.is_empty cd) then begin
      let ra = Nvm.Trace.addr_at trace i and rl = Nvm.Trace.len_at trace i in
      Nvm.Taint.iter
        (fun tid ->
           if Nvm.Trace.kind_at trace tid = k_load then begin
             let xa = Nvm.Trace.addr_at trace tid
             and xl = Nvm.Trace.len_at trace tid in
             if not (overlap xa xl ra rl) then begin
               add_po t seen ~wa:xa ~wl:xl ~ra ~rl PO3;
               add_guardian t seen ~addr:xa ~len:xl
             end
           end)
        cd
    end
  end

let infer (trace : Nvm.Trace.t) =
  let t = create () in
  for i = 0 to Nvm.Trace.length trace - 1 do
    feed t trace i
  done;
  seal t;
  t

(* Ids of the conditions whose watch cell overlaps a store to
   [addr,len), in the order [conds_for] lists them (ascending words;
   within a word, newest condition first; a condition spanning several
   of the range's words is visited once per word). *)
let iter_conds_for t addr len f =
  for w = addr lsr 3 to (addr + len - 1) lsr 3 do
    Windex.iter_word t.po_index w ~addr ~len f
  done

let conds_for t addr len =
  let acc = ref [] in
  iter_conds_for t addr len (fun id ->
      acc :=
        { req = { c_addr = req_addr t id; c_len = req_len t id };
          rule = rule t id; id }
        :: !acc);
  List.rev !acc

(* Ids of the guardian cells overlapping a store to [addr,len). *)
let iter_guardians_for t addr len f =
  for w = addr lsr 3 to (addr + len - 1) lsr 3 do
    Windex.iter_word t.guardian_index w ~addr ~len f
  done
