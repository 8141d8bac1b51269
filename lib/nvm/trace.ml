(* Execution traces. Every instrumented NVM access appends one event; the
   Witcher pipeline (inference, crash-image generation, performance-bug
   detection) consumes the trace post hoc, mirroring §4.1 of the paper.

   A [sid] is the static-instruction-id analogue: a stable source-site
   label such as "level_hash:insert.token", interned to an int (Sid.t).
   Events carry the dynamic trace id (tid), which is the event's index in
   the trace.

   The trace is a sequence of fixed-size columnar segments of
   2^seg_shift events each. Hot event fields sit in unboxed int arrays
   (kind tag, sid, address, length, op index), store payloads in a
   per-segment [Bytes] arena and taints in two parallel arrays. Recording
   an event is a handful of array writes; reading hot fields ([kind_at],
   [addr_at], ...) never allocates. [retire_to] recycles every segment
   wholly below a target tid, which is how a bounded trace window keeps
   only its newest events; a trace that is never retired keeps every
   segment. The trace keeps nothing alive for its readers: a reader that
   needs an event after its segment may retire (the crash simulator's
   unguaranteed stores) copies what it needs when it is fed the event.

   [get]/[iter] reconstruct [event] values on demand, for reports and
   tests; the pipeline reads the columns. *)

type store_ev = {
  s_tid : int;
  s_sid : Sid.t;
  s_addr : int;
  s_len : int;
  s_data : string;
  s_dd : Taint.t;  (* loads the stored value is data-dependent on *)
  s_cd : Taint.t;  (* loads the store is control-dependent on *)
  s_op : int;      (* index of the enclosing test-case operation *)
}

type load_ev = {
  l_tid : int;
  l_sid : Sid.t;
  l_addr : int;
  l_len : int;
  l_cd : Taint.t;
  l_op : int;
}

type event =
  | Load of load_ev
  | Store of store_ev
  | Flush of { f_tid : int; f_sid : Sid.t; f_line : int; f_op : int }
  | Fence of { n_tid : int; n_sid : Sid.t; n_op : int }
  | Log_range of { g_tid : int; g_sid : Sid.t; g_addr : int; g_len : int; g_tx : int; g_op : int }
  | Tx_begin of { t_tid : int; t_tx : int; t_op : int }
  | Tx_commit of { t_tid : int; t_tx : int; t_op : int }
  | Tx_abort of { t_tid : int; t_tx : int; t_op : int }
  | Op_begin of { o_tid : int; o_index : int; o_desc : string }
  | Op_end of { o_tid : int; o_index : int }

(* Event kind tags, the segment discriminant. Exposed for the index-based
   fast paths (Infer/Crash_gen/Perf walk kinds without reconstructing
   events). *)
let k_load = 0
let k_store = 1
let k_flush = 2
let k_fence = 3
let k_log_range = 4
let k_tx_begin = 5
let k_tx_commit = 6
let k_tx_abort = 7
let k_op_begin = 8
let k_op_end = 9

(* Segments are indexed by slot (seg_id mod slot count). Tids keep their
   global meaning across retirement — accessors on a retired tid raise
   [Retired] loudly instead of silently returning recycled data. *)

exception Retired of { tid : int; floor : int }

let () =
  Printexc.register_printer (function
    | Retired { tid; floor } ->
      Some
        (Printf.sprintf
           "Nvm.Trace.Retired: tid %d is below the live floor %d (the \
            windowed trace recycled its segment; raise the streaming \
            window)"
           tid floor)
    | _ -> None)

(* One segment's columns. Field use per kind:
     load:      sid addr      len          op
     store:     sid addr      len          op  aux=arena offset  dd cd
     flush:     sid a=line                 op
     fence:     sid                        op
     log_range: sid addr      len          op  aux=tx
     tx_*:                                 op  aux=tx
     op_begin:      a=desc idx             op=index
     op_end:                               op=index *)
type rseg = {
  mutable r_base : int;          (* tid of index 0; -1 while on the free list *)
  r_kind : Bytes.t;
  r_sid : int array;
  r_a : int array;               (* addr / line / desc index *)
  r_b : int array;               (* length *)
  r_op : int array;
  r_aux : int array;             (* arena offset / tx id *)
  r_dd : Taint.t array;
  r_cd : Taint.t array;
  mutable r_arena : Bytes.t;     (* store payloads, concatenated *)
  mutable r_arena_len : int;
  r_descs : string Vec.t;        (* op_begin descriptions *)
}

type ring = {
  rg_shift : int;
  rg_mask : int;
  mutable rg_slots : rseg option array;  (* seg_id mod n_slots -> segment *)
  mutable rg_free : rseg list;
  mutable rg_floor : int;                (* first live tid *)
  mutable rg_head : rseg option;         (* append cache: segment of len-1 *)
}

type t = {
  rg : ring;
  mutable len : int;
  mutable n_loads : int;
  mutable n_stores : int;
  mutable n_flushes : int;
  mutable n_fences : int;
}

(* Segment size of a trace created without [~ring_shift]: 2^14 events. *)
let default_seg_shift = 14

(* [ring_shift]: segments of 2^ring_shift events. *)
let create ?(ring_shift = default_seg_shift) () =
  if ring_shift < 4 || ring_shift > 24 then
    invalid_arg "Trace.create: ring_shift";
  { rg =
      { rg_shift = ring_shift; rg_mask = (1 lsl ring_shift) - 1;
        rg_slots = Array.make 16 None; rg_free = []; rg_floor = 0;
        rg_head = None };
    len = 0; n_loads = 0; n_stores = 0; n_flushes = 0; n_fences = 0 }

let length t = t.len
let next_tid t = t.len

(* ---------- ring internals ---------- *)

let rseg_alloc rg =
  match rg.rg_free with
  | s :: rest ->
    rg.rg_free <- rest;
    s
  | [] ->
    let n = 1 lsl rg.rg_shift in
    { r_base = -1;
      r_kind = Bytes.create n;
      r_sid = Array.make n 0; r_a = Array.make n 0; r_b = Array.make n 0;
      r_op = Array.make n 0; r_aux = Array.make n 0;
      r_dd = Array.make n Taint.empty; r_cd = Array.make n Taint.empty;
      r_arena = Bytes.create (n * 8); r_arena_len = 0;
      r_descs = Vec.create ~dummy:"" () }

(* Slot of segment [seg_id]: seg_id mod n_slots, a mask because the slot
   table's length is a power of two (16, doubled on growth). Live
   segments always form one contiguous seg-id range (retirement is
   prefix-only), so the slot is unique as long as the live span fits;
   double the slot table when it would not. *)
let[@inline] slot slots seg_id = seg_id land (Array.length slots - 1)

let ring_grow_slots rg =
  let slots = Array.make (2 * Array.length rg.rg_slots) None in
  Array.iter
    (function
      | Some s -> slots.(slot slots (s.r_base lsr rg.rg_shift)) <- Some s
      | None -> ())
    rg.rg_slots;
  rg.rg_slots <- slots

(* Open the segment that will hold [tid] (a segment boundary). *)
let ring_open rg tid =
  let seg_id = tid lsr rg.rg_shift in
  while seg_id - (rg.rg_floor lsr rg.rg_shift) + 1 > Array.length rg.rg_slots
  do ring_grow_slots rg done;
  let s = rseg_alloc rg in
  s.r_base <- seg_id lsl rg.rg_shift;
  s.r_arena_len <- 0;
  Vec.clear s.r_descs;
  rg.rg_slots.(slot rg.rg_slots seg_id) <- Some s;
  rg.rg_head <- Some s;
  s

(* Segment for appending at [tid]; appends are strictly sequential. *)
let ring_rw rg tid =
  if tid land rg.rg_mask = 0 then ring_open rg tid
  else
    match rg.rg_head with
    | Some s when s.r_base = tid land lnot rg.rg_mask -> s
    | _ -> ring_open rg tid

let raise_retired rg tid = raise (Retired { tid; floor = rg.rg_floor })

(* Segment holding live tid [tid]; raises on retired tids. A retired
   segment leaves its slot empty or reused by a newer base, so the base
   check alone rejects every tid below the floor. Inlined: every read
   accessor goes through it. *)
let[@inline] ring_ro rg tid =
  match rg.rg_slots.(slot rg.rg_slots (tid lsr rg.rg_shift)) with
  | Some s when s.r_base = tid land lnot rg.rg_mask -> s
  | _ -> raise_retired rg tid

(* Reserve [n] arena bytes; returns the offset they start at. *)
let ring_arena_reserve s n =
  let cap = Bytes.length s.r_arena in
  if s.r_arena_len + n > cap then begin
    let newcap = max (2 * cap) (s.r_arena_len + n) in
    let b = Bytes.create newcap in
    Bytes.blit s.r_arena 0 b 0 s.r_arena_len;
    s.r_arena <- b
  end;
  let off = s.r_arena_len in
  s.r_arena_len <- off + n;
  off

(* ---------- windowed retirement ---------- *)

let live_floor t = t.rg.rg_floor

let is_live t tid = tid >= live_floor t && tid < t.len

(* Retire (recycle) every segment that lies wholly below [target], the
   head (still-appending) segment excepted. Retirement is prefix-only,
   so the live segments stay one contiguous range. Returns the number of
   segments retired. *)
let retire_to t ~target =
  let rg = t.rg in
  let shift = rg.rg_shift in
  let head = (t.len - 1) asr shift in
  let retired = ref 0 in
  let id = ref (rg.rg_floor lsr shift) in
  while !id < head && (!id + 1) lsl shift <= target do
    let s = ring_ro rg (!id lsl shift) in
    rg.rg_slots.(slot rg.rg_slots !id) <- None;
    s.r_base <- -1;
    Array.fill s.r_dd 0 (Array.length s.r_dd) Taint.empty;
    Array.fill s.r_cd 0 (Array.length s.r_cd) Taint.empty;
    rg.rg_free <- s :: rg.rg_free;
    incr retired;
    incr id;
    rg.rg_floor <- !id lsl shift
  done;
  !retired

(* ---------- fast append API (used by Ctx's recording paths) ---------- *)

let add_load t ~sid ~addr ~len ~cd ~op =
  let tid = t.len in
  t.n_loads <- t.n_loads + 1;
  let rg = t.rg in
  let s = ring_rw rg tid in
  let i = tid land rg.rg_mask in
  Bytes.unsafe_set s.r_kind i (Char.unsafe_chr k_load);
  s.r_sid.(i) <- sid; s.r_a.(i) <- addr; s.r_b.(i) <- len;
  s.r_op.(i) <- op; s.r_cd.(i) <- cd;
  t.len <- tid + 1;
  tid

let ring_store_fields rg s tid ~sid ~addr ~len ~off ~dd ~cd ~op =
  let i = tid land rg.rg_mask in
  Bytes.unsafe_set s.r_kind i (Char.unsafe_chr k_store);
  s.r_sid.(i) <- sid; s.r_a.(i) <- addr; s.r_b.(i) <- len;
  s.r_op.(i) <- op; s.r_aux.(i) <- off;
  s.r_dd.(i) <- dd; s.r_cd.(i) <- cd

(* Append a store whose payload is [src[src_off .. src_off+len)]. *)
let add_store_sub t ~sid ~addr ~src ~src_off ~len ~dd ~cd ~op =
  let tid = t.len in
  t.n_stores <- t.n_stores + 1;
  let s = ring_rw t.rg tid in
  let off = ring_arena_reserve s len in
  Bytes.blit_string src src_off s.r_arena off len;
  ring_store_fields t.rg s tid ~sid ~addr ~len ~off ~dd ~cd ~op;
  t.len <- tid + 1;
  tid

(* Append an 8-byte little-endian store without building an intermediate
   string (the u64-write fast path; the value must fit one line). *)
let add_store_u64 t ~sid ~addr ~v ~dd ~cd ~op =
  let tid = t.len in
  t.n_stores <- t.n_stores + 1;
  let s = ring_rw t.rg tid in
  let off = ring_arena_reserve s 8 in
  Bytes.set_int64_le s.r_arena off (Int64.of_int v);
  ring_store_fields t.rg s tid ~sid ~addr ~len:8 ~off ~dd ~cd ~op;
  t.len <- tid + 1;
  tid

let add_flush t ~sid ~line ~op =
  let tid = t.len in
  t.n_flushes <- t.n_flushes + 1;
  let rg = t.rg in
  let s = ring_rw rg tid in
  let i = tid land rg.rg_mask in
  Bytes.unsafe_set s.r_kind i (Char.unsafe_chr k_flush);
  s.r_sid.(i) <- sid; s.r_a.(i) <- line; s.r_op.(i) <- op;
  t.len <- tid + 1;
  tid

let add_fence t ~sid ~op =
  let tid = t.len in
  t.n_fences <- t.n_fences + 1;
  let rg = t.rg in
  let s = ring_rw rg tid in
  let i = tid land rg.rg_mask in
  Bytes.unsafe_set s.r_kind i (Char.unsafe_chr k_fence);
  s.r_sid.(i) <- sid; s.r_op.(i) <- op;
  t.len <- tid + 1;
  tid

(* ---------- generic append (rare event kinds, tests) ---------- *)

let push t ev =
  let rg = t.rg in
  let tid = t.len in
  let simple kind ~sid ~a ~b ~op ~aux =
    let s = ring_rw rg tid in
    let i = tid land rg.rg_mask in
    Bytes.unsafe_set s.r_kind i (Char.unsafe_chr kind);
    s.r_sid.(i) <- sid; s.r_a.(i) <- a; s.r_b.(i) <- b;
    s.r_op.(i) <- op; s.r_aux.(i) <- aux;
    t.len <- tid + 1
  in
  match ev with
  | Load l ->
    ignore (add_load t ~sid:l.l_sid ~addr:l.l_addr ~len:l.l_len ~cd:l.l_cd
              ~op:l.l_op)
  | Store st ->
    ignore (add_store_sub t ~sid:st.s_sid ~addr:st.s_addr ~src:st.s_data
              ~src_off:0 ~len:(String.length st.s_data) ~dd:st.s_dd
              ~cd:st.s_cd ~op:st.s_op)
  | Flush f -> ignore (add_flush t ~sid:f.f_sid ~line:f.f_line ~op:f.f_op)
  | Fence f -> ignore (add_fence t ~sid:f.n_sid ~op:f.n_op)
  | Log_range g ->
    simple k_log_range ~sid:g.g_sid ~a:g.g_addr ~b:g.g_len ~op:g.g_op
      ~aux:g.g_tx
  | Tx_begin { t_tx; t_op; _ } ->
    simple k_tx_begin ~sid:0 ~a:0 ~b:0 ~op:t_op ~aux:t_tx
  | Tx_commit { t_tx; t_op; _ } ->
    simple k_tx_commit ~sid:0 ~a:0 ~b:0 ~op:t_op ~aux:t_tx
  | Tx_abort { t_tx; t_op; _ } ->
    simple k_tx_abort ~sid:0 ~a:0 ~b:0 ~op:t_op ~aux:t_tx
  | Op_begin o ->
    let s = ring_rw rg tid in
    let i = tid land rg.rg_mask in
    Bytes.unsafe_set s.r_kind i (Char.unsafe_chr k_op_begin);
    s.r_sid.(i) <- 0; s.r_b.(i) <- 0; s.r_aux.(i) <- 0;
    s.r_a.(i) <- Vec.length s.r_descs;
    Vec.push s.r_descs o.o_desc;
    s.r_op.(i) <- o.o_index;
    t.len <- tid + 1
  | Op_end o -> simple k_op_end ~sid:0 ~a:0 ~b:0 ~op:o.o_index ~aux:0

(* ---------- index-based fast reads (no allocation) ---------- *)

let kind_at t i =
  let rg = t.rg in
  Char.code (Bytes.unsafe_get (ring_ro rg i).r_kind (i land rg.rg_mask))

let sid_at t i = (ring_ro t.rg i).r_sid.(i land t.rg.rg_mask)

(* addr for loads/stores/log ranges, line for flushes *)
let addr_at t i = (ring_ro t.rg i).r_a.(i land t.rg.rg_mask)
let len_at t i = (ring_ro t.rg i).r_b.(i land t.rg.rg_mask)
let op_at t i = (ring_ro t.rg i).r_op.(i land t.rg.rg_mask)
let tx_at t i = (ring_ro t.rg i).r_aux.(i land t.rg.rg_mask)
let dd_at t i = (ring_ro t.rg i).r_dd.(i land t.rg.rg_mask)
let cd_at t i = (ring_ro t.rg i).r_cd.(i land t.rg.rg_mask)

(* Store [i]'s payload, copied out of the segment's arena. *)
let store_payload t i =
  let s = ring_ro t.rg i in
  let j = i land t.rg.rg_mask in
  Bytes.sub_string s.r_arena s.r_aux.(j) s.r_b.(j)

(* ---------- event reconstruction ---------- *)

let ring_get rg tid =
  let s = ring_ro rg tid in
  let i = tid land rg.rg_mask in
  match Char.code (Bytes.unsafe_get s.r_kind i) with
  | 0 ->
    Load { l_tid = tid; l_sid = s.r_sid.(i); l_addr = s.r_a.(i);
           l_len = s.r_b.(i); l_cd = s.r_cd.(i); l_op = s.r_op.(i) }
  | 1 ->
    Store { s_tid = tid; s_sid = s.r_sid.(i); s_addr = s.r_a.(i);
            s_len = s.r_b.(i);
            s_data = Bytes.sub_string s.r_arena s.r_aux.(i) s.r_b.(i);
            s_dd = s.r_dd.(i); s_cd = s.r_cd.(i); s_op = s.r_op.(i) }
  | 2 -> Flush { f_tid = tid; f_sid = s.r_sid.(i); f_line = s.r_a.(i);
                 f_op = s.r_op.(i) }
  | 3 -> Fence { n_tid = tid; n_sid = s.r_sid.(i); n_op = s.r_op.(i) }
  | 4 ->
    Log_range { g_tid = tid; g_sid = s.r_sid.(i); g_addr = s.r_a.(i);
                g_len = s.r_b.(i); g_tx = s.r_aux.(i); g_op = s.r_op.(i) }
  | 5 -> Tx_begin { t_tid = tid; t_tx = s.r_aux.(i); t_op = s.r_op.(i) }
  | 6 -> Tx_commit { t_tid = tid; t_tx = s.r_aux.(i); t_op = s.r_op.(i) }
  | 7 -> Tx_abort { t_tid = tid; t_tx = s.r_aux.(i); t_op = s.r_op.(i) }
  | 8 ->
    Op_begin { o_tid = tid; o_index = s.r_op.(i);
               o_desc = Vec.get s.r_descs s.r_a.(i) }
  | _ -> Op_end { o_tid = tid; o_index = s.r_op.(i) }

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Trace.get";
  ring_get t.rg i

(* [iter] covers only the live window (retired prefixes are gone by
   construction). *)
let iter f t = for i = t.rg.rg_floor to t.len - 1 do f (ring_get t.rg i) done

let stats t = (t.n_loads, t.n_stores, t.n_flushes, t.n_fences)

let pp_event ppf = function
  | Load l -> Fmt.pf ppf "%6d L  %a @%d+%d" l.l_tid Sid.pp l.l_sid l.l_addr l.l_len
  | Store s -> Fmt.pf ppf "%6d S  %a @%d+%d" s.s_tid Sid.pp s.s_sid s.s_addr s.s_len
  | Flush f -> Fmt.pf ppf "%6d FL %a line=%d" f.f_tid Sid.pp f.f_sid f.f_line
  | Fence f -> Fmt.pf ppf "%6d FE %a" f.n_tid Sid.pp f.n_sid
  | Log_range g -> Fmt.pf ppf "%6d LG %a @%d+%d tx=%d" g.g_tid Sid.pp g.g_sid g.g_addr g.g_len g.g_tx
  | Tx_begin x -> Fmt.pf ppf "%6d TB tx=%d" x.t_tid x.t_tx
  | Tx_commit x -> Fmt.pf ppf "%6d TC tx=%d" x.t_tid x.t_tx
  | Tx_abort x -> Fmt.pf ppf "%6d TA tx=%d" x.t_tid x.t_tx
  | Op_begin o -> Fmt.pf ppf "%6d OB #%d %s" o.o_tid o.o_index o.o_desc
  | Op_end o -> Fmt.pf ppf "%6d OE #%d" o.o_tid o.o_index
