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
   [addr_at], ...) never allocates. The trace is one table of segments
   indexed by segment id: an append at a segment boundary allocates a
   fresh segment, and [retire_to] releases every segment wholly below a
   target tid, which is how a bounded trace window holds only its newest
   events; a trace that is never retired keeps every segment. The trace
   keeps nothing alive for its readers: a reader that needs an event
   after its segment may retire (the crash simulator's unguaranteed
   stores) copies what it needs when it is fed the event.

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

(* Tids keep their global meaning across retirement: accessors on a tid
   below the live floor raise [Retired], and on a tid at or past [length]
   raise [Invalid_argument], instead of returning another event's data. *)

exception Retired of { tid : int; floor : int }

let () =
  Printexc.register_printer (function
    | Retired { tid; floor } ->
      Some
        (Printf.sprintf
           "Nvm.Trace.Retired: tid %d is below the live floor %d (the \
            windowed trace released its segment; raise the streaming \
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

type t = {
  shift : int;
  mask : int;
  mutable segs : rseg array;  (* segment id -> segment; [released] below
                                 the floor and past the head *)
  mutable floor : int;        (* first live tid, a segment boundary *)
  mutable len : int;
  mutable n_loads : int;
  mutable n_stores : int;
  mutable n_flushes : int;
  mutable n_fences : int;
}

(* Stands for every segment not held: released below the floor, not yet
   opened past the head. Accessors check the tid against the floor and
   the length first, so its empty columns are never read. *)
let released =
  { r_kind = Bytes.empty; r_sid = [||]; r_a = [||]; r_b = [||]; r_op = [||];
    r_aux = [||]; r_dd = [||]; r_cd = [||]; r_arena = Bytes.empty;
    r_arena_len = 0; r_descs = Vec.create ~dummy:"" () }

(* Segment size of a trace created without [~seg_shift]: 2^14 events. *)
let default_seg_shift = 14

(* [seg_shift]: segments of 2^seg_shift events. *)
let create ?(seg_shift = default_seg_shift) () =
  if seg_shift < 4 || seg_shift > 24 then
    invalid_arg "Trace.create: seg_shift";
  { shift = seg_shift; mask = (1 lsl seg_shift) - 1;
    segs = Array.make 16 released; floor = 0;
    len = 0; n_loads = 0; n_stores = 0; n_flushes = 0; n_fences = 0 }

let length t = t.len
let next_tid t = t.len

(* ---------- segment table ---------- *)

(* Open the segment that starts at [tid], doubling the table when its id
   falls past the end. *)
let seg_open t tid =
  let id = tid lsr t.shift in
  if id >= Array.length t.segs then begin
    let segs = Array.make (max (id + 1) (2 * Array.length t.segs)) released in
    Array.blit t.segs 0 segs 0 (Array.length t.segs);
    t.segs <- segs
  end;
  let n = 1 lsl t.shift in
  let s =
    { r_kind = Bytes.create n;
      r_sid = Array.make n 0; r_a = Array.make n 0; r_b = Array.make n 0;
      r_op = Array.make n 0; r_aux = Array.make n 0;
      r_dd = Array.make n Taint.empty; r_cd = Array.make n Taint.empty;
      r_arena = Bytes.create (n * 8); r_arena_len = 0;
      r_descs = Vec.create ~dummy:"" () }
  in
  t.segs.(id) <- s;
  s

(* Segment for appending at [tid]; appends are strictly sequential, so
   [tid] is either a segment boundary or in the head segment. *)
let[@inline] seg_rw t tid =
  if tid land t.mask = 0 then seg_open t tid else t.segs.(tid lsr t.shift)

let out_of_window t tid =
  if tid < t.floor then raise (Retired { tid; floor = t.floor })
  else
    invalid_arg
      (Printf.sprintf "Trace: tid %d is at or past the length %d" tid t.len)

(* Segment holding live tid [tid]; raises on a tid outside
   [floor, length), so a segment it returns is held and [tid land mask]
   indexes its columns. Inlined: every read accessor goes through it. *)
let[@inline] seg_ro t tid =
  if tid < t.floor || tid >= t.len then out_of_window t tid
  else Array.unsafe_get t.segs (tid lsr t.shift)

(* Reserve [n] arena bytes; returns the offset they start at. *)
let arena_reserve s n =
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

let live_floor t = t.floor

(* Release every segment that lies wholly below [target], the head
   (still-appending) segment excepted. Retirement is prefix-only, so the
   held segments stay one contiguous range from the floor. Returns the
   number of segments released. *)
let retire_to t ~target =
  let head = (t.len - 1) asr t.shift in
  let first = t.floor lsr t.shift in
  let id = ref first in
  while !id < head && (!id + 1) lsl t.shift <= target do
    t.segs.(!id) <- released;
    incr id
  done;
  t.floor <- !id lsl t.shift;
  !id - first

(* ---------- fast append API (used by Ctx's recording paths) ---------- *)

let add_load t ~sid ~addr ~len ~cd ~op =
  let tid = t.len in
  t.n_loads <- t.n_loads + 1;
  let s = seg_rw t tid in
  let i = tid land t.mask in
  Bytes.unsafe_set s.r_kind i (Char.unsafe_chr k_load);
  s.r_sid.(i) <- sid; s.r_a.(i) <- addr; s.r_b.(i) <- len;
  s.r_op.(i) <- op; s.r_cd.(i) <- cd;
  t.len <- tid + 1;
  tid

let store_fields t s tid ~sid ~addr ~len ~off ~dd ~cd ~op =
  let i = tid land t.mask in
  Bytes.unsafe_set s.r_kind i (Char.unsafe_chr k_store);
  s.r_sid.(i) <- sid; s.r_a.(i) <- addr; s.r_b.(i) <- len;
  s.r_op.(i) <- op; s.r_aux.(i) <- off;
  s.r_dd.(i) <- dd; s.r_cd.(i) <- cd

(* Append a store whose payload is [src[src_off .. src_off+len)]. *)
let add_store_sub t ~sid ~addr ~src ~src_off ~len ~dd ~cd ~op =
  let tid = t.len in
  t.n_stores <- t.n_stores + 1;
  let s = seg_rw t tid in
  let off = arena_reserve s len in
  Bytes.blit_string src src_off s.r_arena off len;
  store_fields t s tid ~sid ~addr ~len ~off ~dd ~cd ~op;
  t.len <- tid + 1;
  tid

(* Append an 8-byte little-endian store without building an intermediate
   string (the u64-write fast path; the value must fit one line). *)
let add_store_u64 t ~sid ~addr ~v ~dd ~cd ~op =
  let tid = t.len in
  t.n_stores <- t.n_stores + 1;
  let s = seg_rw t tid in
  let off = arena_reserve s 8 in
  Bytes.set_int64_le s.r_arena off (Int64.of_int v);
  store_fields t s tid ~sid ~addr ~len:8 ~off ~dd ~cd ~op;
  t.len <- tid + 1;
  tid

let add_flush t ~sid ~line ~op =
  let tid = t.len in
  t.n_flushes <- t.n_flushes + 1;
  let s = seg_rw t tid in
  let i = tid land t.mask in
  Bytes.unsafe_set s.r_kind i (Char.unsafe_chr k_flush);
  s.r_sid.(i) <- sid; s.r_a.(i) <- line; s.r_op.(i) <- op;
  t.len <- tid + 1;
  tid

let add_fence t ~sid ~op =
  let tid = t.len in
  t.n_fences <- t.n_fences + 1;
  let s = seg_rw t tid in
  let i = tid land t.mask in
  Bytes.unsafe_set s.r_kind i (Char.unsafe_chr k_fence);
  s.r_sid.(i) <- sid; s.r_op.(i) <- op;
  t.len <- tid + 1;
  tid

(* ---------- generic append (rare event kinds, tests) ---------- *)

let push t ev =
  let tid = t.len in
  let simple kind ~sid ~a ~b ~op ~aux =
    let s = seg_rw t tid in
    let i = tid land t.mask in
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
    let s = seg_rw t tid in
    let i = tid land t.mask in
    Bytes.unsafe_set s.r_kind i (Char.unsafe_chr k_op_begin);
    s.r_a.(i) <- Vec.length s.r_descs;
    Vec.push s.r_descs o.o_desc;
    s.r_op.(i) <- o.o_index;
    t.len <- tid + 1
  | Op_end o -> simple k_op_end ~sid:0 ~a:0 ~b:0 ~op:o.o_index ~aux:0

(* ---------- index-based fast reads (no allocation) ---------- *)

let kind_at t i =
  Char.code (Bytes.unsafe_get (seg_ro t i).r_kind (i land t.mask))

let sid_at t i = (seg_ro t i).r_sid.(i land t.mask)

(* addr for loads/stores/log ranges, line for flushes *)
let addr_at t i = (seg_ro t i).r_a.(i land t.mask)
let len_at t i = (seg_ro t i).r_b.(i land t.mask)
let op_at t i = (seg_ro t i).r_op.(i land t.mask)
let tx_at t i = (seg_ro t i).r_aux.(i land t.mask)
let dd_at t i = (seg_ro t i).r_dd.(i land t.mask)
let cd_at t i = (seg_ro t i).r_cd.(i land t.mask)

(* Store [i]'s payload, copied out of the segment's arena. *)
let store_payload t i =
  let s = seg_ro t i in
  let j = i land t.mask in
  Bytes.sub_string s.r_arena s.r_aux.(j) s.r_b.(j)

(* ---------- event reconstruction ---------- *)

let seg_get t tid =
  let s = seg_ro t tid in
  let i = tid land t.mask in
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
  seg_get t i

(* [iter] covers only the live window (retired prefixes are gone by
   construction). *)
let iter f t = for i = t.floor to t.len - 1 do f (seg_get t i) done

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
