(* The cache/NVM persistence state machine (§4.3.1). Walking a trace in
   program order, it tracks for every cache line which stores are

   - dirty: written but with no durability guarantee — the line may be
     evicted (persisted) at any moment, or lost on crash;
   - pending: covered by a flush since they were written — durable after
     the next fence;
   - guaranteed: flushed and fenced — durable in every reachable crash
     state.

   Feasibility of a crash NVM state follows the two x86 rules the paper
   states: a fence makes all previously flushed stores durable, and stores
   to the same cache line persist in program order (x86-TSO), so a chosen
   persist-set must be per-line prefix-closed and must contain every
   guaranteed store. The minimal extra persist-set making one store
   durable is a [closure]: a slice of its line's store sequence, checked
   and keyed ([feasible_closure], [closure_key]) in O(1) and O(10), and
   turned into a tid list ([closure_tids]) only for an image that is
   materialized or logged.

   The simulator is backed by the trace it walks: store positions live in
   two int arrays indexed by trace slot ([pos]) and store payloads are
   read straight out of the trace's arena ([Trace.store_write]/
   [store_mix]), so feeding a store is two array writes and persisting
   one is an arena blit — no per-store hash table entries or event
   reconstruction on the hot path. Events are fed by trace index
   ([on_index], allocation-free).

   The module incrementally maintains [persisted], the pool image holding
   exactly the guaranteed stores; [materialize] returns a copy-on-write
   view of it with the chosen feasible set of extra (evicted-early)
   stores written into the view — O(extras) work instead of an
   O(pool_size) copy. Same-line stores become guaranteed in program
   order, so the incremental application yields the correct final bytes.
   The tests check closures and images against an independent model of
   the same two rules (test/persist_model.ml).

   Lifetime: a materialized image aliases [persisted] as its read-only
   base, so it is valid until the next [on_index] (which may mutate
   [persisted] at a fence). The pipeline checks each image before feeding
   the next trace event; callers that retain an image longer must detach
   it with [Pmem.copy]. *)

(* Per-line sequence indices are absolute (count stores ever fed on the
   line); [dropped] entries have been compacted off the front of [seq]
   once guaranteed — queries never look below [guaranteed_upto], so the
   physical Vec holds only the not-yet-guaranteed tail plus a bounded
   guaranteed fringe. *)
type line_state = {
  seq : int Vec.t;                 (* store tids on this line, program order *)
  mutable dropped : int;           (* guaranteed prefix compacted off [seq] *)
  mutable pending_upto : int;      (* seq prefix covered by a flush *)
  mutable guaranteed_upto : int;   (* seq prefix that is durable *)
}

type t = {
  trace : Trace.t;
  lines : (int, line_state) Hashtbl.t;
  mutable pos_line : int array;    (* store slot -> cache line, -1 = not fed *)
  mutable pos_idx : int array;     (* store slot -> index in line's seq *)
  mutable touched : int list;      (* lines flushed since last fence *)
  persisted : Pmem.t;
  mutable n_guaranteed : int;
  mutable n_dirty : int;           (* stores with no guarantee yet *)
  mutable bytes_materialized : int; (* bytes written to build images *)
  mutable digest : int;            (* digest of [persisted]'s content *)
  mutable on_guarantee : (int -> unit) option;
      (* called with each store tid as it becomes guaranteed; the streaming
         engine unpins the store's trace segment here *)
}

let create ~trace ~pool_size =
  let n = max 16 (Trace.slot_capacity trace) in
  { trace;
    lines = Hashtbl.create 1024;
    pos_line = Array.make n (-1);
    pos_idx = Array.make n (-1);
    touched = [];
    persisted = Pmem.create pool_size;
    n_guaranteed = 0;
    n_dirty = 0;
    bytes_materialized = 0;
    digest = 0x1505;
    on_guarantee = None }

let set_on_guarantee t f = t.on_guarantee <- Some f

(* Position-map key. Tid-indexed arrays would grow with the whole run
   even when the trace window is bounded; [Trace.slot_pos] is dense over
   the live window, so the maps stay O(window). A recycled slot is
   overwritten when its new store is fed; queries are only meaningful for
   live tids. *)
let[@inline] pos t tid = Trace.slot_pos t.trace tid

let ensure t p =
  let cap = Array.length t.pos_idx in
  if p >= cap then begin
    let n = max (2 * cap) (p + 1) in
    let grow a =
      let b = Array.make n (-1) in
      Array.blit a 0 b 0 cap;
      b
    in
    t.pos_line <- grow t.pos_line;
    t.pos_idx <- grow t.pos_idx
  end

let line_state t line =
  match Hashtbl.find_opt t.lines line with
  | Some ls -> ls
  | None ->
    let ls = { seq = Vec.create ~dummy:(-1) (); dropped = 0;
               pending_upto = 0; guaranteed_upto = 0 } in
    Hashtbl.add t.lines line ls;
    ls

(* Absolute number of stores ever fed on the line / absolute get. *)
let[@inline] seq_len ls = ls.dropped + Vec.length ls.seq
let[@inline] seq_get ls i = Vec.get ls.seq (i - ls.dropped)

(* Keep the guaranteed fringe retained in [seq] bounded: once it exceeds
   this, the prefix is blitted away. Amortized O(1) per store. *)
let compact_threshold = 1024

let compact ls =
  let excess = ls.guaranteed_upto - ls.dropped in
  if excess >= compact_threshold then begin
    Vec.drop_front ls.seq excess;
    ls.dropped <- ls.guaranteed_upto
  end

let on_store_tid t tid =
  let line = Pmem.line_of_addr (Trace.addr_at t.trace tid) in
  let ls = line_state t line in
  let p = pos t tid in
  ensure t p;
  t.pos_line.(p) <- line;
  t.pos_idx.(p) <- seq_len ls;
  Vec.push ls.seq tid;
  t.n_dirty <- t.n_dirty + 1

let on_flush t line =
  let ls = line_state t line in
  if ls.pending_upto < seq_len ls then begin
    ls.pending_upto <- seq_len ls;
    t.touched <- line :: t.touched
  end

let on_fence t =
  Obs.Metrics.incr "crash_sim.fences";
  List.iter
    (fun line ->
       let ls = line_state t line in
       for i = ls.guaranteed_upto to ls.pending_upto - 1 do
         let tid = seq_get ls i in
         Trace.store_write t.trace tid t.persisted;
         (* Incremental content digest of [persisted]: same guaranteed
            store sequence => same digest. Identical content reached by
            different sequences may digest differently, which only costs
            a missed memo hit, never a wrong one. *)
         t.digest <- Trace.store_mix t.trace t.digest tid;
         t.n_guaranteed <- t.n_guaranteed + 1;
         t.n_dirty <- t.n_dirty - 1;
         match t.on_guarantee with None -> () | Some f -> f tid
       done;
       if ls.guaranteed_upto < ls.pending_upto then begin
         ls.guaranteed_upto <- ls.pending_upto;
         compact ls
       end)
    t.touched;
  t.touched <- []

(* Feed the event at trace index [i]; non-persistence events are ignored.
   The fast path: dispatches on the kind tag without building an event. *)
let on_index t i =
  let k = Trace.kind_at t.trace i in
  if k = Trace.k_store then on_store_tid t i
  else if k = Trace.k_flush then on_flush t (Trace.addr_at t.trace i)
  else if k = Trace.k_fence then on_fence t

(* A tid below the trace's live floor: its segment was retired, which a
   windowed run only allows once every store in it is guaranteed (dirty
   stores pin their segment). Queries must not touch its (recycled) slot,
   and may answer from the invariant instead. *)
let[@inline] retired t tid = tid < Trace.live_floor t.trace

let fed t tid =
  tid >= 0
  && (retired t tid
      || (let p = pos t tid in
          p < Array.length t.pos_idx && t.pos_idx.(p) >= 0))

let is_guaranteed t tid =
  retired t tid
  || (fed t tid
      && (let p = pos t tid in
          let ls = Hashtbl.find t.lines t.pos_line.(p) in
          t.pos_idx.(p) < ls.guaranteed_upto))

let n_guaranteed t = t.n_guaranteed
let n_dirty t = t.n_dirty

(* The minimal extra persist-set making one store durable: every
   not-yet-guaranteed store on its line up to and including it (x86-TSO
   per-line order). It is held as a slice of the line's store sequence —
   absolute indices [cl_lo] (the line's [guaranteed_upto]) to [cl_hi]
   (the store's own index) — so keying and avoid-checking a candidate
   reads a few ints and builds no list. Empty ([cl_hi < cl_lo]) when the
   store is retired, not fed or already guaranteed.

   Lifetime: a closure is valid until the next [on_index], because a
   fence may compact the line's [seq] — the same rule as for a
   materialized image. *)
type closure = {
  cl_line : int;        (* cache line, -1 for the empty closure *)
  cl_ls : line_state;
  cl_lo : int;
  cl_hi : int;
}

let empty_closure =
  { cl_line = -1;
    cl_ls = { seq = Vec.create ~dummy:(-1) (); dropped = 0; pending_upto = 0;
              guaranteed_upto = 0 };
    cl_lo = 0; cl_hi = -1 }

let closure t tid =
  if retired t tid || not (fed t tid) then empty_closure
  else begin
    let p = pos t tid in
    let line = t.pos_line.(p) in
    let ls = Hashtbl.find t.lines line in
    { cl_line = line; cl_ls = ls; cl_lo = ls.guaranteed_upto;
      cl_hi = t.pos_idx.(p) }
  end

(* The closure of [persist] if it can persist while [avoid] stays
   non-durable; [None] if [avoid] is already guaranteed or sits in the
   closure (same line, index in [guaranteed_upto, persist's index]). *)
let feasible_closure t ~avoid persist =
  if is_guaranteed t avoid then None
  else begin
    let c = closure t persist in
    if
      fed t avoid
      && (let p = pos t avoid in
          t.pos_line.(p) = c.cl_line
          && t.pos_idx.(p) >= c.cl_lo && t.pos_idx.(p) <= c.cl_hi)
    then None
    else Some c
  end

(* The closure's tids at indices [cl_lo, hi], in program order. *)
let tids_upto c hi =
  let rec collect i acc =
    if i < c.cl_lo then acc else collect (i - 1) (seq_get c.cl_ls i :: acc)
  in
  collect hi []

(* The closure as a list of tids, in program order (ascending). *)
let closure_tids c = tids_upto c c.cl_hi

(* [Hashtbl.hash] of [closure_tids c], from at most its first 10 tids:
   the hash mixes 10 meaningful values, and for an int list those are its
   first 10 elements (a shorter list mixes its [] terminator too, as the
   prefix does), so the prefix hashes exactly as the whole list. Two
   closures that share their first 10 tids — runs of 10 or more stores on
   one line — therefore share a key. *)
let closure_key c = Hashtbl.hash (tids_upto c (min c.cl_hi (c.cl_lo + 9)))

(* Concrete crash image: guaranteed stores plus [extras] (program order).
   Returns a COW view over [persisted]; see the lifetime note above. *)
let materialize t ~extras =
  let img = Pmem.cow t.persisted in
  List.iter
    (fun tid ->
       if fed t tid then begin
         Trace.store_write t.trace tid img;
         let len = Trace.len_at t.trace tid in
         t.bytes_materialized <- t.bytes_materialized + len;
         Obs.Metrics.incr ~n:len "crash_sim.bytes_materialized"
       end)
    (List.sort compare extras);
  Obs.Metrics.incr "crash_sim.images_materialized";
  (* COW build cost of this image: how many 64B lines the extras dirtied.
     The distribution backs the zero-copy scaling argument (DESIGN §6). *)
  Obs.Metrics.observe "crash_sim.overlay_lines" (Pmem.overlay_lines img);
  img

let bytes_materialized t = t.bytes_materialized

(* Digest of a crash image materialized from [persisted]: the base digest
   plus the image's overlay (the chosen extras), O(extras) work. Images
   with equal digests hold byte-identical guaranteed content, so a
   verdict computed for one is valid for the other (same crash op). *)
let image_digest t img = Pmem.digest ~seed:t.digest img

(* A uniformly random feasible extra persist-set: an independent random
   prefix of the dirty stores of every line (per-line prefix closure is
   feasibility). Used by the §7.5 random-exploration baseline. *)
let random_feasible_extras t rng =
  Hashtbl.fold
    (fun _line ls acc ->
       let d = seq_len ls - ls.guaranteed_upto in
       if d = 0 then acc
       else begin
         let k = Random.State.int rng (d + 1) in
         let rec take i acc =
           if i >= k then acc
           else take (i + 1) (seq_get ls (ls.guaranteed_upto + i) :: acc)
         in
         take 0 acc
       end)
    t.lines []

(* Every feasible extra persist-set at the current point, up to [limit]
   (cartesian product of per-line prefixes). Exhaustive-testing (Yat)
   support for tiny traces. *)
let all_feasible_extras t ~limit =
  let per_line =
    Hashtbl.fold
      (fun _line ls acc ->
         let d = seq_len ls - ls.guaranteed_upto in
         if d = 0 then acc
         else begin
           let prefixes =
             List.init (d + 1) (fun k ->
                 List.init k (fun i -> seq_get ls (ls.guaranteed_upto + i)))
           in
           prefixes :: acc
         end)
      t.lines []
  in
  let rec product acc = function
    | [] -> acc
    | prefixes :: rest ->
      if List.length acc * List.length prefixes > limit then
        (* truncate: keep the empty-prefix choice plus as many as fit *)
        let budget = max 1 (limit / max 1 (List.length acc)) in
        let prefixes = List.filteri (fun i _ -> i < budget) prefixes in
        product
          (List.concat_map (fun set -> List.map (fun p -> p @ set) prefixes) acc)
          rest
      else
        product
          (List.concat_map (fun set -> List.map (fun p -> p @ set) prefixes) acc)
          rest
  in
  product [ [] ] per_line
