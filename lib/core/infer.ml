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
   in insertion order) and one entry in each of five flat columns indexed
   by it: watch address, watch length, req address, req length and rule
   tag. The sites of both sides are the stores' sites, which generation
   reads from the simulator. A guardian is likewise an id into an address
   and a length column. [add_po] dedups on (watch range, req range,
   rule), so two distinct ids are distinct conditions: generation dedups
   an epoch by id. The [po] record is not how a condition is kept; it is
   the view [conds_for] builds for tests.

   The dedup sets matter only while conditions are being discovered, and
   the word indexes only once they all are. [seal] runs once the last
   event is fed ([infer] seals before it returns, the engine after its
   last [feed]): it drops the dedup sets, cuts every column to its used
   length and builds both word indexes from the range columns. [feed] on
   a sealed set raises [Invalid_argument] instead of inserting duplicates
   under fresh ids; an unsealed set has empty indexes, and generation
   refuses it.

   Cost model: the inference walk reads events by index (kind tag + int
   fields + taint arrays) instead of reconstructing them, and a word
   index is three int arrays holding one entry per watched word of each
   range, so it costs what its watched words hold, not the span up to
   the highest of them. [iter_conds_for]/[iter_guardians_for] are
   allocation-free; [conds_for] is the list-returning form. *)

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

(* [a] grown to at least [n] slots (doubling), new slots set to [fill]. *)
let grow_to a n fill =
  if n <= Array.length a then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* Word index over a set of ranges, built once from its id-indexed
   range columns: [words] holds every 8-byte word some range touches, in
   ascending order; the ids of the ranges on [words.(k)] are
   [ids.(starts.(k))] to [ids.(starts.(k + 1) - 1)], newest (highest)
   first. A lookup visits a store's words in ascending order and each
   word's ids newest first, the order the front-end parity property
   asserts image streams in. *)
module Windex = struct
  type t = {
    words : int array;
    starts : int array;  (* one more slot than [words] *)
    ids : int array;
  }

  let empty = { words = [||]; starts = [| 0 |]; ids = [||] }

  (* Index ids [0, n) by the words of [addrs.(id), addrs.(id) + lens.(id))
     with a counting pass: entries per word, prefix sums into run starts,
     then ids placed from the highest down. *)
  let build addrs lens =
    let n = Array.length addrs in
    let top = ref (-1) in
    for id = 0 to n - 1 do
      top := max !top ((addrs.(id) + lens.(id) - 1) lsr 3)
    done;
    (* word -> its entry count, then the next free slot of its run *)
    let at = Array.make (!top + 1) 0 in
    let n_words = ref 0 in
    for id = 0 to n - 1 do
      for w = addrs.(id) lsr 3 to (addrs.(id) + lens.(id) - 1) lsr 3 do
        if at.(w) = 0 then incr n_words;
        at.(w) <- at.(w) + 1
      done
    done;
    let words = Array.make !n_words 0 in
    let starts = Array.make (!n_words + 1) 0 in
    let k = ref 0 and s = ref 0 in
    for w = 0 to !top do
      if at.(w) > 0 then begin
        words.(!k) <- w;
        starts.(!k) <- !s;
        s := !s + at.(w);
        at.(w) <- starts.(!k);
        incr k
      end
    done;
    starts.(!k) <- !s;
    let ids = Array.make !s 0 in
    for id = n - 1 downto 0 do
      for w = addrs.(id) lsr 3 to (addrs.(id) + lens.(id) - 1) lsr 3 do
        ids.(at.(w)) <- id;
        at.(w) <- at.(w) + 1
      done
    done;
    { words; starts; ids }

  (* Ids whose range, read from [addrs]/[lens], overlaps [addr,
     addr+len); a range on several of the store's words is visited once
     per word. *)
  let iter t addrs lens addr len f =
    let words = t.words and starts = t.starts and ids = t.ids in
    let first = addr lsr 3 and last = (addr + len - 1) lsr 3 in
    (* the first run whose word is at or above [first] *)
    let lo = ref 0 and hi = ref (Array.length words) in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if Array.unsafe_get words mid < first then lo := mid + 1 else hi := mid
    done;
    let k = ref !lo in
    while !k < Array.length words && Array.unsafe_get words !k <= last do
      for s = starts.(!k) to starts.(!k + 1) - 1 do
        let id = Array.unsafe_get ids s in
        if overlap (Array.unsafe_get addrs id) (Array.unsafe_get lens id)
             addr len
        then f id
      done;
      incr k
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
  (* 8-byte word -> condition / guardian ids; empty until [seal] *)
  mutable po_index : Windex.t;
  mutable guardian_index : Windex.t;
  (* condition id -> watch cell, req cell and rule (0 = PO1, 1 = PO2,
     2 = PO3) *)
  mutable watch_addrs : int array;
  mutable watch_lens : int array;
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
let sealed t = Option.is_none t.seen

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
      t.watch_addrs <- grow_to t.watch_addrs (id + 1) 0;
      t.watch_lens <- grow_to t.watch_lens (id + 1) 0;
      t.req_addrs <- grow_to t.req_addrs (id + 1) 0;
      t.req_lens <- grow_to t.req_lens (id + 1) 0;
      if id >= Bytes.length t.rules then
        t.rules <- Bytes.extend t.rules 0 (max 1 (Bytes.length t.rules));
      t.watch_addrs.(id) <- wa;
      t.watch_lens.(id) <- wl;
      t.req_addrs.(id) <- ra;
      t.req_lens.(id) <- rl;
      Bytes.set t.rules id (Char.chr rid);
      (match rule with
       | PO1 -> t.n_po1 <- t.n_po1 + 1
       | PO2 -> t.n_po2 <- t.n_po2 + 1
       | PO3 -> t.n_po3 <- t.n_po3 + 1)
    end
  end

let add_guardian t seen ~addr ~len =
  if Pair_set.add_new seen.guardians addr len then begin
    let g = t.n_guardians in
    t.g_addrs <- grow_to t.g_addrs (g + 1) 0;
    t.g_lens <- grow_to t.g_lens (g + 1) 0;
    t.g_addrs.(g) <- addr;
    t.g_lens.(g) <- len;
    t.n_guardians <- g + 1
  end

let create () =
  { po_index = Windex.empty; guardian_index = Windex.empty;
    watch_addrs = [||]; watch_lens = [||]; req_addrs = [||];
    req_lens = [||]; rules = Bytes.empty; g_addrs = [||]; g_lens = [||];
    n_guardians = 0; n_po1 = 0; n_po2 = 0; n_po3 = 0;
    seen =
      Some
        { pairs = Pair_set.create 8192; wide = Hashtbl.create 16;
          guardians = Pair_set.create 256 } }

(* The condition set is complete: drop the dedup sets, which nothing
   reads after inference, and the growth slack of every column, and
   build the word indexes generation reads. *)
let seal t =
  t.seen <- None;
  let n = n_ordering t and g = t.n_guardians in
  t.watch_addrs <- Array.sub t.watch_addrs 0 n;
  t.watch_lens <- Array.sub t.watch_lens 0 n;
  t.req_addrs <- Array.sub t.req_addrs 0 n;
  t.req_lens <- Array.sub t.req_lens 0 n;
  t.rules <- Bytes.sub t.rules 0 n;
  t.g_addrs <- Array.sub t.g_addrs 0 g;
  t.g_lens <- Array.sub t.g_lens 0 g;
  t.po_index <- Windex.build t.watch_addrs t.watch_lens;
  t.guardian_index <- Windex.build t.g_addrs t.g_lens

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
  Windex.iter t.po_index t.watch_addrs t.watch_lens addr len f

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
  Windex.iter t.guardian_index t.g_addrs t.g_lens addr len f
