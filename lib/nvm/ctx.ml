(* The instrumented execution context. Store implementations perform every
   NVM access through this module; in [Record] mode each access appends a
   trace event carrying the data/control dependencies Witcher's inference
   needs (§4.1-4.2). In [Quiet] mode (oracle runs, crash-image resumption)
   accesses hit the pool directly with no tracing and no taint.

   Control dependencies come from two places: branch scopes ([if_],
   [when_], [with_guard]) and pointer-chase guards, where the first
   [read_ptr] of each address in an op guards the rest of that op.

   Stores are split at cache-line boundaries so that every Store event
   lives on exactly one line; the crash simulator and image builder rely
   on this to keep per-line persist-order reasoning exact.

   Store code passes sids as strings; [Ctx] interns them on entry (see
   Sid: a one-entry physical-equality memo makes the per-access cost of
   re-interning a loop's literal effectively zero) and the trace records
   only the int.

   [fuel] bounds the number of accesses until the next [refuel]:
   resuming from a corrupted crash image can loop forever (e.g. a B+tree
   whose root points to a sibling); running dry raises [Fuel_exhausted],
   which the driver reports as a visible crash, itself an output
   divergence. The driver refuels before every replayed op, so the budget
   is per op. [op_begin]/[op_end] measure how many accesses each recorded
   op makes; [max_op_cost] is what sizes that budget. *)

exception Fuel_exhausted

type mode = Record | Quiet

type t = {
  pmem : Pmem.t;
  mode : mode;
  trace : Trace.t;             (* empty and unused in Quiet mode *)
  taints : bool;               (* false: record events, skip taint tracking *)
  mutable cd_stack : (Taint.t * Taint.t) list;
      (* per open guard scope, [cd] and [op_cd] as they were when it
         opened; empty between ops *)
  mutable op_cd : Taint.t;     (* pointer-chase guards, cleared per op *)
  mutable op_ptrs : int list;  (* addresses [op_cd] guards, cleared per op *)
  mutable cd : Taint.t;        (* open scopes' guards + op_cd *)
  mutable op : int;
  mutable fuel : int;
  mutable op_fuel : int;       (* [fuel] at the current op's [op_begin] *)
  mutable max_op_cost : int;   (* most accesses any bracketed op made *)
  mutable tx_counter : int;
  mutable rtrack : Wset.t option;
      (* when set, every successful NVM read logs its word range; used by
         the fence-batched checker to decide verdict inheritance *)
}

(* [trace] records into a caller-supplied trace (the engine passes one
   with its configured segment size). [taintless] appends the identical
   event sequence — same tids, same payloads — but with empty taints and
   no guard bookkeeping: the streaming validation pass re-executes the
   deterministic workload only to regenerate event positions and store
   payloads, and never reads dependence edges, so it skips their cost. *)
let create ?(fuel = 100_000_000) ?trace ?(taintless = false) ~mode pmem =
  let trace = match trace with Some tr -> tr | None -> Trace.create () in
  { pmem; mode; trace; taints = not taintless; cd_stack = [];
    op_cd = Taint.empty; op_ptrs = []; cd = Taint.empty; op = -1; fuel;
    op_fuel = fuel; max_op_cost = 0; tx_counter = 0; rtrack = None }

let set_read_track t w = t.rtrack <- w

let[@inline] track t addr len =
  match t.rtrack with None -> () | Some w -> Wset.add_range w addr len

let pmem t = t.pmem
let trace t = t.trace
let mode t = t.mode
let max_op_cost t = t.max_op_cost
let refuel t fuel = t.fuel <- fuel

let burn t =
  t.fuel <- t.fuel - 1;
  if t.fuel <= 0 then raise Fuel_exhausted

let recording t = t.mode = Record

(* Reads *)

let read_u64 t ~sid addr =
  burn t;
  let v = Pmem.read_u64 t.pmem addr in
  track t addr 8;
  if recording t then begin
    let tid =
      Trace.add_load t.trace ~sid:(Sid.intern sid) ~addr ~len:8 ~cd:t.cd
        ~op:t.op
    in
    if t.taints then Tv.make ~taint:(Taint.singleton tid) v else Tv.const v
  end
  else Tv.const v

let read_u8 t ~sid addr =
  burn t;
  let v = Pmem.read_u8 t.pmem addr in
  track t addr 1;
  if recording t then begin
    let tid =
      Trace.add_load t.trace ~sid:(Sid.intern sid) ~addr ~len:1 ~cd:t.cd
        ~op:t.op
    in
    if t.taints then Tv.make ~taint:(Taint.singleton tid) v else Tv.const v
  end
  else Tv.const v

let read_bytes t ~sid addr len =
  burn t;
  let s = Pmem.read_bytes t.pmem addr len in
  track t addr len;
  if recording t then begin
    let tid =
      Trace.add_load t.trace ~sid:(Sid.intern sid) ~addr ~len ~cd:t.cd
        ~op:t.op
    in
    if t.taints then Tv.blob ~taint:(Taint.singleton tid) s else Tv.blob s
  end
  else Tv.blob s

(* Writes. [emit_store] splits at cache-line boundaries. *)

let emit_store t ~sid addr data dd =
  let len = String.length data in
  let sid = Sid.intern sid in
  let rec go addr off =
    if off < len then begin
      let line_end = (Pmem.line_of_addr addr + 1) * Pmem.line_size in
      let chunk = min (len - off) (line_end - addr) in
      ignore
        (Trace.add_store_sub t.trace ~sid ~addr ~src:data ~src_off:off
           ~len:chunk ~dd ~cd:t.cd ~op:t.op);
      go (addr + chunk) (off + chunk)
    end
  in
  go addr 0

let write_u64 t ~sid addr tv =
  burn t;
  Pmem.write_u64 t.pmem addr (Tv.value tv);
  if recording t then begin
    if addr land (Pmem.line_size - 1) <= Pmem.line_size - 8 then
      (* fits one line: skip the split loop and the intermediate string *)
      ignore
        (Trace.add_store_u64 t.trace ~sid:(Sid.intern sid) ~addr
           ~v:(Tv.value tv) ~dd:(Tv.taint tv) ~cd:t.cd ~op:t.op)
    else begin
      let b = Bytes.create 8 in
      Bytes.set_int64_le b 0 (Int64.of_int (Tv.value tv));
      emit_store t ~sid addr (Bytes.to_string b) (Tv.taint tv)
    end
  end

let write_u8 t ~sid addr tv =
  burn t;
  Pmem.write_u8 t.pmem addr (Tv.value tv);
  if recording t then
    emit_store t ~sid addr
      (String.make 1 (Char.chr (Tv.value tv land 0xff)))
      (Tv.taint tv)

let write_bytes t ~sid addr blob =
  burn t;
  let s = Tv.blob_value blob in
  Pmem.write_bytes t.pmem addr s;
  if recording t then emit_store t ~sid addr s (Tv.blob_taint blob)

(* Persistence primitives *)

let flush t ~sid addr =
  burn t;
  if recording t then
    ignore
      (Trace.add_flush t.trace ~sid:(Sid.intern sid)
         ~line:(Pmem.line_of_addr addr) ~op:t.op)

let flush_range t ~sid addr len =
  if len > 0 then begin
    let first = Pmem.line_of_addr addr in
    let last = Pmem.line_of_addr (addr + len - 1) in
    for line = first to last do
      flush t ~sid (line * Pmem.line_size)
    done
  end

let fence t ~sid =
  burn t;
  if recording t then
    ignore (Trace.add_fence t.trace ~sid:(Sid.intern sid) ~op:t.op)

(* flush_range + fence: PMDK's pmem_persist *)
let persist t ~sid addr len =
  flush_range t ~sid addr len;
  fence t ~sid

(* Transactions (used by Pmdk.Tx; events feed extra-logging detection) *)

let fresh_tx t =
  t.tx_counter <- t.tx_counter + 1;
  t.tx_counter

let log_range t ~sid ~tx addr len =
  if recording t then begin
    let tid = Trace.next_tid t.trace in
    Trace.push t.trace
      (Log_range { g_tid = tid; g_sid = Sid.intern sid; g_addr = addr;
                   g_len = len; g_tx = tx; g_op = t.op })
  end

let tx_begin t ~tx =
  if recording t then
    Trace.push t.trace
      (Tx_begin { t_tid = Trace.next_tid t.trace; t_tx = tx; t_op = t.op })

let tx_commit t ~tx =
  if recording t then
    Trace.push t.trace
      (Tx_commit { t_tid = Trace.next_tid t.trace; t_tx = tx; t_op = t.op })

let tx_abort t ~tx =
  if recording t then
    Trace.push t.trace
      (Tx_abort { t_tid = Trace.next_tid t.trace; t_tx = tx; t_op = t.op })

(* Control dependencies. [if_] branches on a tainted condition; while the
   chosen branch runs, every access is control-dependent on the loads in
   the guard's taint — rules PO2/PO3 read these edges back off the trace.

   Leaving a scope restores the guard set that was in force when it
   opened. [op_cd] only grows within an op, so the one thing a scope can
   add that outlives it is a pointer guard: the saved set is unioned
   with [op_cd] only when [op_cd] changed inside the scope, and a scope
   that loaded no new pointer costs no allocation on exit. *)

let push_guard t taint =
  t.cd_stack <- (t.cd, t.op_cd) :: t.cd_stack;
  t.cd <- Taint.union t.cd taint

let pop_guard t =
  match t.cd_stack with
  | [] -> invalid_arg "Ctx.pop_guard: empty guard stack"
  | (cd, op_cd) :: rest ->
    t.cd_stack <- rest;
    t.cd <- (if t.op_cd == op_cd then cd else Taint.union cd t.op_cd)

(* Pointer-chase dependency: a load used as an address. Everything the
   current operation does afterwards is only reachable through this
   pointer, so the load guards the rest of the op — this is how the PDG's
   address-level data dependencies surface (e.g. "the table pointer is a
   guardian of the rehashed slots"). Cleared at op boundaries.

   Only the op's first load of an address becomes a guard (level-hash's
   rehash re-reads its two table pointers hundreds of times per op); a
   re-read still returns a value with its own taint, so data dependences
   keep every load. Dropping the re-reads loses no condition: inference
   keys every condition and guardian by the load's (address, 8) cell,
   never by its sid or tid, and walks a taint in ascending tid, so the
   oldest load, the one kept, is the one whose sid a condition records. *)
let read_ptr t ~sid addr =
  burn t;
  let v = Pmem.read_u64 t.pmem addr in
  track t addr 8;
  if recording t then begin
    let tid =
      Trace.add_load t.trace ~sid:(Sid.intern sid) ~addr ~len:8 ~cd:t.cd
        ~op:t.op
    in
    if t.taints then begin
      let taint = Taint.singleton tid in
      (* addresses are immediate ints, so [memq] is value equality *)
      if not (List.memq addr t.op_ptrs) then begin
        t.op_ptrs <- addr :: t.op_ptrs;
        t.op_cd <- Taint.union t.op_cd taint;
        t.cd <- Taint.union t.cd taint
      end;
      Tv.make ~taint v
    end
    else Tv.const v
  end
  else Tv.const v

let with_guard t taint f =
  if Taint.is_empty taint || not (recording t) then f ()
  else begin
    push_guard t taint;
    match f () with
    | v -> pop_guard t; v
    | exception e -> pop_guard t; raise e
  end

let if_ t cond ~then_ ~else_ =
  with_guard t (Tv.taint cond) (if Tv.to_bool cond then then_ else else_)

let when_ t cond f =
  if_ t cond ~then_:f ~else_:(fun () -> ())

(* Operation boundaries *)

let op_begin t ~index ~desc =
  t.op <- index;
  t.op_fuel <- t.fuel;
  t.op_cd <- Taint.empty;
  t.op_ptrs <- [];
  t.cd <- Taint.empty;
  if recording t then
    Trace.push t.trace
      (Op_begin { o_tid = Trace.next_tid t.trace; o_index = index; o_desc = desc })

let op_end t ~index =
  t.max_op_cost <- max t.max_op_cost (t.op_fuel - t.fuel);
  if recording t then
    Trace.push t.trace
      (Op_end { o_tid = Trace.next_tid t.trace; o_index = index })
