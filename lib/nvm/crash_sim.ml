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

   The simulator owns the stores it has not guaranteed: feeding a store
   copies its address, payload, sid, cache line and per-line index into
   a tid-keyed table, and the fence that guarantees the store persists it
   from there and drops the entry. Guarantee, closures, materialization
   and [store_sid]/[store_range] answer from that table, so the
   simulator reads the trace only at the index being fed ([on_index])
   and a bounded trace window may retire a segment whose stores are not
   guaranteed yet. A fed store absent from the table is guaranteed.

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

(* A fed store that is not guaranteed yet. *)
type store = {
  st_addr : int;
  st_data : string;      (* payload *)
  st_sid : Sid.t;
  st_ls : line_state;    (* its cache line *)
  st_idx : int;          (* absolute index in the line's [seq] *)
}

(* Tids are dense and ascending, so the identity hashes them evenly. *)
module Tid_tbl = Hashtbl.Make (struct
    type t = int
    let equal = Int.equal
    let hash tid = tid land max_int
  end)

type t = {
  trace : Trace.t;
  lines : (int, line_state) Hashtbl.t;
  unguaranteed : store Tid_tbl.t;  (* fed stores with no guarantee yet *)
  mutable fed : int;               (* trace indices fed so far: [0, fed) *)
  mutable touched : line_state list;  (* lines flushed since last fence *)
  persisted : Pmem.t;
  mutable n_guaranteed : int;
  mutable bytes_materialized : int; (* bytes written to build images *)
  mutable digest : int;            (* digest of [persisted]'s content *)
}

let create ~trace ~pool_size =
  { trace;
    lines = Hashtbl.create 1024;
    unguaranteed = Tid_tbl.create 1024;
    fed = 0;
    touched = [];
    persisted = Pmem.create pool_size;
    n_guaranteed = 0;
    bytes_materialized = 0;
    digest = 0x1505 }

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

let on_store t i =
  let tr = t.trace in
  let addr = Trace.addr_at tr i in
  let ls = line_state t (Pmem.line_of_addr addr) in
  Tid_tbl.replace t.unguaranteed i
    { st_addr = addr; st_data = Trace.store_payload tr i;
      st_sid = Trace.sid_at tr i; st_ls = ls; st_idx = seq_len ls };
  Vec.push ls.seq i

let on_flush t line =
  let ls = line_state t line in
  if ls.pending_upto < seq_len ls then begin
    ls.pending_upto <- seq_len ls;
    t.touched <- ls :: t.touched
  end

let on_fence t =
  Obs.Metrics.incr "crash_sim.fences";
  List.iter
    (fun ls ->
       for i = ls.guaranteed_upto to ls.pending_upto - 1 do
         let tid = seq_get ls i in
         let st = Tid_tbl.find t.unguaranteed tid in
         Pmem.write_bytes t.persisted st.st_addr st.st_data;
         (* Incremental content digest of [persisted]: same guaranteed
            store sequence => same digest. Identical content reached by
            different sequences may digest differently, which only costs
            a missed memo hit, never a wrong one. *)
         t.digest <- Pmem.mix_string (Pmem.mix t.digest st.st_addr) st.st_data;
         t.n_guaranteed <- t.n_guaranteed + 1;
         Tid_tbl.remove t.unguaranteed tid
       done;
       if ls.guaranteed_upto < ls.pending_upto then begin
         ls.guaranteed_upto <- ls.pending_upto;
         compact ls
       end)
    t.touched;
  t.touched <- []

(* Feed the event at trace index [i], the next one; non-persistence
   events are ignored. The fast path: dispatches on the kind tag without
   building an event. *)
let on_index t i =
  let k = Trace.kind_at t.trace i in
  if k = Trace.k_store then on_store t i
  else if k = Trace.k_flush then on_flush t (Trace.addr_at t.trace i)
  else if k = Trace.k_fence then on_fence t;
  t.fed <- i + 1

(* Whether fed store [tid] is guaranteed (false for a tid not fed yet). *)
let is_guaranteed t tid =
  tid >= 0 && tid < t.fed && not (Tid_tbl.mem t.unguaranteed tid)

let n_guaranteed t = t.n_guaranteed
let n_dirty t = Tid_tbl.length t.unguaranteed

let held t tid =
  match Tid_tbl.find_opt t.unguaranteed tid with
  | Some st -> st
  | None -> invalid_arg "Crash_sim: store is guaranteed or not fed"

(* Site and written byte range of an unguaranteed store. *)
let store_sid t tid = (held t tid).st_sid

let store_range t tid =
  let st = held t tid in
  (st.st_addr, String.length st.st_data)

(* The minimal extra persist-set making one store durable: every
   not-yet-guaranteed store on its line up to and including it (x86-TSO
   per-line order). It is held as a slice of the line's store sequence —
   absolute indices [cl_lo] (the line's [guaranteed_upto]) to [cl_hi]
   (the store's own index) — so keying and avoid-checking a candidate
   reads a few ints and builds no list. Empty ([cl_hi < cl_lo]) when the
   store is not fed or already guaranteed.

   Lifetime: a closure is valid until the next [on_index], because a
   fence may compact the line's [seq] — the same rule as for a
   materialized image. *)
type closure = {
  cl_ls : line_state;
  cl_lo : int;
  cl_hi : int;
}

let empty_closure =
  { cl_ls = { seq = Vec.create ~dummy:(-1) (); dropped = 0; pending_upto = 0;
              guaranteed_upto = 0 };
    cl_lo = 0; cl_hi = -1 }

let closure t tid =
  match Tid_tbl.find_opt t.unguaranteed tid with
  | Some st ->
    { cl_ls = st.st_ls; cl_lo = st.st_ls.guaranteed_upto; cl_hi = st.st_idx }
  | None -> empty_closure

(* The closure of [persist] if it can persist while [avoid] stays
   non-durable; [None] if [avoid] is already guaranteed or sits in the
   closure (same line, index in [guaranteed_upto, persist's index]). A
   guaranteed [avoid], the common case, costs one table probe and no
   allocation: a fed store absent from the table is guaranteed. *)
let feasible_closure t ~avoid persist =
  match Tid_tbl.find_opt t.unguaranteed avoid with
  | None when avoid >= 0 && avoid < t.fed -> None
  | a ->
    let c = closure t persist in
    match a with
    | Some a when a.st_ls == c.cl_ls && a.st_idx >= c.cl_lo
                  && a.st_idx <= c.cl_hi -> None
    | _ -> Some c

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
       match Tid_tbl.find_opt t.unguaranteed tid with
       | Some st ->
         Pmem.write_bytes img st.st_addr st.st_data;
         let len = String.length st.st_data in
         t.bytes_materialized <- t.bytes_materialized + len;
         Obs.Metrics.incr ~n:len "crash_sim.bytes_materialized"
       | None -> ())
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
      let prefixes =
        if List.length acc * List.length prefixes <= limit then prefixes
        else
          (* truncate: keep the empty-prefix choice plus as many as fit *)
          let budget = max 1 (limit / max 1 (List.length acc)) in
          List.filteri (fun i _ -> i < budget) prefixes
      in
      product
        (List.concat_map (fun set -> List.map (fun p -> p @ set) prefixes) acc)
        rest
  in
  product [ [] ] per_line
