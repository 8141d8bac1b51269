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
   paper, so counts in Table 5 grow with the trace. A condition record
   holds only what generation reads: its req cell, its rule and a dense
   [id] (0, 1, ... in insertion order). The watch range is where the
   record is filed — [Windex]'s address and length columns, one entry
   per watched word — and the sites of both sides are the stores'
   sites, which generation reads from the simulator. [add_po] dedups on
   (watch range, req range, rule), so two records with distinct ids are
   distinct conditions: generation dedups an epoch by id.

   Cost model: the inference walk reads events by index (kind tag + int
   fields + taint arrays) instead of reconstructing them, and the two
   word indexes are plain arrays indexed by 8-byte word number (pool
   sizes are a few MB, so at most pool_size/8 slots) rather than
   hash tables of list refs. [iter_words]/[iter_conds_for]/
   [iter_guardians_for] are allocation-free; [words] and [conds_for] are
   their list-returning forms. *)

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

(* Cache-line-blocked word index (FAST-style hierarchical blocking): each
   8-byte pool word maps to a chain of 16-entry blocks, newest block at
   the chain head. An entry's (addr, len) lives in flat int arrays
   indexed by slot = block * 16 + j — the crash-generation walk's hot
   probe (overlap test against every condition on a word) is a linear
   scan of one or two 128-byte array stripes instead of a pointer chase
   through cons cells, and the payload array is only touched on a hit.

   Iteration order reproduces the cons-list layout this replaces exactly:
   newest entry first within a word (blocks newest-first, entries within
   a block scanned backwards), because candidate ordering feeds the
   image digest sequences the front-end parity property asserts on. *)
module Windex = struct
  let block = 16

  type 'a t = {
    mutable heads : int array;  (* word -> newest block id, -1 = none *)
    mutable nexts : int array;  (* block id -> older block id, -1 = end *)
    mutable used : int array;   (* block id -> entries filled *)
    mutable addrs : int array;  (* slot = block id * 16 + j *)
    mutable lens : int array;
    mutable vals : 'a array;
    mutable n_blocks : int;
    dummy : 'a;
  }

  let create ~dummy words =
    { heads = Array.make words (-1); nexts = Array.make 64 (-1);
      used = Array.make 64 0; addrs = Array.make (64 * block) 0;
      lens = Array.make (64 * block) 0; vals = Array.make (64 * block) dummy;
      n_blocks = 0; dummy }

  let ensure_word t w =
    if w >= Array.length t.heads then begin
      let n = max (2 * Array.length t.heads) (w + 1) in
      let b = Array.make n (-1) in
      Array.blit t.heads 0 b 0 (Array.length t.heads);
      t.heads <- b
    end

  let grow_blocks t =
    let cap = Array.length t.used in
    let grow_int a fill =
      let b = Array.make (2 * cap) fill in
      Array.blit a 0 b 0 cap; b
    in
    t.nexts <- grow_int t.nexts (-1);
    t.used <- grow_int t.used 0;
    let grow_slots a fill =
      let b = Array.make (2 * cap * block) fill in
      Array.blit a 0 b 0 (cap * block); b
    in
    t.addrs <- grow_slots t.addrs 0;
    t.lens <- grow_slots t.lens 0;
    t.vals <- grow_slots t.vals t.dummy

  let add t w ~addr ~len v =
    ensure_word t w;
    let head = t.heads.(w) in
    let b =
      if head >= 0 && t.used.(head) < block then head
      else begin
        if t.n_blocks >= Array.length t.used then grow_blocks t;
        let b = t.n_blocks in
        t.n_blocks <- b + 1;
        t.nexts.(b) <- head;
        t.used.(b) <- 0;
        t.heads.(w) <- b;
        b
      end
    in
    let s = (b * block) + t.used.(b) in
    t.addrs.(s) <- addr;
    t.lens.(s) <- len;
    t.vals.(s) <- v;
    t.used.(b) <- t.used.(b) + 1

  (* Entries on word [w] overlapping [addr, addr+len), newest first. *)
  let iter_word t w ~addr ~len f =
    if w < Array.length t.heads then begin
      let b = ref t.heads.(w) in
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
}

type t = {
  po_index : po Windex.t;        (* 8-byte word of watch -> conds *)
  guardian_index : cell Windex.t; (* word -> guardian cells *)
  mutable n_guardians : int;
  mutable n_po1 : int;
  mutable n_po2 : int;
  mutable n_po3 : int;
  seen : seen;                   (* dedup state, lives across [feed] calls *)
  seen_g : Pair_set.t;
}

let n_ordering t = t.n_po1 + t.n_po2 + t.n_po3
let n_atomicity t = t.n_guardians * (t.n_guardians - 1) / 2
let n_guardians t = t.n_guardians

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
      let cond = { req = { c_addr = ra; c_len = rl }; rule; id = n_ordering t } in
      (match rule with
       | PO1 -> t.n_po1 <- t.n_po1 + 1
       | PO2 -> t.n_po2 <- t.n_po2 + 1
       | PO3 -> t.n_po3 <- t.n_po3 + 1);
      iter_words wa wl
        (fun w -> Windex.add t.po_index w ~addr:wa ~len:wl cond)
    end
  end

let add_guardian t seen_g ~addr ~len =
  if Pair_set.add_new seen_g addr len then begin
    t.n_guardians <- t.n_guardians + 1;
    let cell = { c_addr = addr; c_len = len } in
    iter_words addr len
      (fun w -> Windex.add t.guardian_index w ~addr ~len cell)
  end

let create () =
  let dummy_cell = { c_addr = 0; c_len = 0 } in
  { po_index = Windex.create 4096 ~dummy:{ req = dummy_cell; rule = PO1; id = -1 };
    guardian_index = Windex.create 4096 ~dummy:dummy_cell;
    n_guardians = 0; n_po1 = 0; n_po2 = 0; n_po3 = 0;
    seen = { pairs = Pair_set.create 8192; wide = Hashtbl.create 16 };
    seen_g = Pair_set.create 256 }

(* Process the event at trace index [i]. The only trace reads are of [i]
   itself and of the loads in its taints. A windowed run feeds each op's
   events before any segment of the op can retire, so only a taint
   carried over from an op further back than the window reaches a
   retired load, and that raises [Nvm.Trace.Retired]. Feeding
   every index once, in order, is exactly the batch walk: condition
   discovery depends only on the prefix up to [i]. *)
let feed t (trace : Nvm.Trace.t) i =
  let k_load = Nvm.Trace.k_load in
  let k = Nvm.Trace.kind_at trace i in
  if k = Nvm.Trace.k_store then begin
    let wa = Nvm.Trace.addr_at trace i and wl = Nvm.Trace.len_at trace i in
    let member rule tid =
      if Nvm.Trace.kind_at trace tid = k_load then
        add_po t t.seen ~wa ~wl ~ra:(Nvm.Trace.addr_at trace tid)
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
               add_po t t.seen ~wa:xa ~wl:xl ~ra ~rl PO3;
               add_guardian t t.seen_g ~addr:xa ~len:xl
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
  t

(* Conditions whose watch cell overlaps a store to [addr,len), visited in
   the same order [conds_for] lists them (ascending words; within a word,
   newest condition first; a condition spanning several of the range's
   words is visited once per word, as before). *)
let iter_conds_for t addr len f =
  iter_words addr len (fun w -> Windex.iter_word t.po_index w ~addr ~len f)

let conds_for t addr len =
  let acc = ref [] in
  iter_conds_for t addr len (fun c -> acc := c :: !acc);
  List.rev !acc

(* Guardian cells overlapping a store to [addr,len). *)
let iter_guardians_for t addr len f =
  iter_words addr len
    (fun w -> Windex.iter_word t.guardian_index w ~addr ~len f)
