(* Runs a store against a test case in three modes:

   - [record]: instrumented run producing the trace and the committed
     outputs (these double as the "committed" oracle for every crash
     point, §4.4).
   - [run_quiet]: uninstrumented run for rolled-back oracles.
   - [resume]: attach to a crash NVM image, run recovery and the suffix of
     the test case; any visible failure (simulated segfault, a replayed op
     running out of fuel, corrupt pool) marks the remaining outputs
     [Crashed].

   Operation indices in the trace: index 0 is store creation, index k >= 1
   is [ops.(k - 1)]. *)

open Nvm

type recorded = {
  ops : Op.t array;
  outputs : Output.t array;
  trace : Trace.t;
  pool_size : int;
  final_image : string;  (* snapshot after the full run *)
  checkpoints : (int * Pmem.t) list;
  (* (op index, flat pool snapshot after that op), ascending; every
     checkpointed pool is immutable and reusable across oracle runs *)
}

(* Record-time pool snapshots, the checkpoints rolled-back oracles resume
   from: a flat copy after every [stride]-th op but the last, the newest
   [cap] held. Copies must be flat: the recording pool keeps mutating, so
   an O(1) COW view would alias live bytes. Which snapshots are held only
   changes an oracle's cost, never its outputs. *)
type ckpts = {
  stride : int;                        (* 0 = no checkpoints *)
  cap : int;
  mutable held : (int * Pmem.t) list;  (* (op index, snapshot), newest first *)
  mutable n_held : int;                (* never decreases: the most held *)
  mutable evicted : int;               (* dropped as the newest [cap] rotated *)
}

let ckpts ?(cap = max_int) stride =
  { stride; cap; held = []; n_held = 0; evicted = 0 }

(* Snapshot [pmem] into [c] if op [index] of [n] is on the stride; returns
   whether it did. [log] emits the `ckpt` event. *)
let checkpoint ?(log = true) c ~n ~index pmem =
  c.stride > 0 && index > 0 && index mod c.stride = 0 && index < n
  && begin
    c.held <- (index, Pmem.copy pmem) :: c.held;
    if c.n_held < c.cap then c.n_held <- c.n_held + 1
    else begin
      c.held <- List.filteri (fun i _ -> i < c.cap) c.held;
      c.evicted <- c.evicted + 1
    end;
    Obs.Metrics.incr ~n:(Pmem.size pmem) "driver.ckpt_bytes";
    if log && Obs.Event.enabled () then
      ignore (Obs.Event.emit "ckpt" ~fields:[ ("op", Obs.Jsonx.Int index) ]);
    true
  end

(* The instrumented op loop every recording pass shares: create the store
   as op index 0, then run [ops.(i)] as index [i + 1], each bracketed by
   [Ctx.op_begin]/[Ctx.op_end]. [after_op index out] runs as soon as the
   op's events are in the trace (creation reports [Output.Ok]); the loop
   ends early once [stop ()] holds. [log] emits one `op` event per index
   and counts the ops; a deterministic re-execution of already-logged ops
   passes [false]. Afterwards [Ctx.max_op_cost ctx] is the access count of
   the costliest op, creation included, which replay budgets are sized
   from; [log] also records it as the gauge [driver.max_op_cost]. *)
let exec ?(log = true) ?(stop = fun () -> false) (module S : Store_intf.S)
    ctx ops ~after_op =
  let begin_op index desc =
    Ctx.op_begin ctx ~index ~desc;
    if log && Obs.Event.enabled () then
      ignore
        (Obs.Event.emit "op"
           ~fields:
             [ ("op", Obs.Jsonx.Int index); ("desc", Obs.Jsonx.Str desc) ])
  in
  begin_op 0 "create";
  let store = S.create ctx in
  Ctx.op_end ctx ~index:0;
  after_op 0 Output.Ok;
  let n = Array.length ops in
  let i = ref 0 in
  while !i < n && not (stop ()) do
    let index = !i + 1 in
    begin_op index (Op.desc ops.(!i));
    let out = S.exec store ops.(!i) in
    Ctx.op_end ctx ~index;
    after_op index out;
    incr i
  done;
  if log then begin
    Obs.Metrics.incr ~n "driver.record_ops";
    Obs.Metrics.set_gauge "driver.max_op_cost"
      (float_of_int (Ctx.max_op_cost ctx))
  end

let record ?(ckpt_stride = 0) ?(boxed = false) (module S : Store_intf.S) ops =
  let ops = Array.of_list ops in
  let n = Array.length ops in
  let pmem = Pmem.create S.pool_size in
  let ctx = Ctx.create ~boxed ~mode:Record pmem in
  let ckpts = ckpts ckpt_stride in
  let outputs = Array.make n Output.Ok in
  exec (module S) ctx ops ~after_op:(fun index out ->
      if index > 0 then outputs.(index - 1) <- out;
      ignore (checkpoint ckpts ~n ~index pmem));
  { ops; outputs; trace = Ctx.trace ctx; pool_size = S.pool_size;
    final_image = Pmem.snapshot pmem; checkpoints = List.rev ckpts.held }

(* Uninstrumented execution of an arbitrary op list; used for rolled-back
   oracles. Must be deterministic w.r.t. [record] modulo the removed op. *)
let run_quiet (module S : Store_intf.S) ops =
  Obs.Metrics.incr "driver.quiet_runs";
  let pmem = Pmem.create S.pool_size in
  let ctx = Ctx.create ~mode:Quiet pmem in
  let store = S.create ctx in
  Array.of_list (List.map (S.exec store) ops)

(* Rolled-back oracle from a record-time checkpoint: resume (open +
   recover) a COW view of the pool state after op [from_op], replay trace
   ops [from_op + 1 .. n] skipping [skip], and return the outputs of ops
   [skip + 1 .. n] — O(n - from_op) store ops instead of the O(n) full
   re-run. The checkpointed image is fully consistent (all ops up to
   [from_op] committed cleanly), so recovery must behave exactly like the
   uninterrupted run; the caller falls back to [run_quiet] on any
   store-visible failure ([describe_failure]) here. *)
let oracle_from_checkpoint (module S : Store_intf.S) ~checkpoint ~ops ~from_op
    ~skip =
  let n = Array.length ops in
  Obs.Metrics.incr "driver.ckpt_resumes";
  let ctx = Ctx.create ~mode:Quiet (Pmem.cow checkpoint) in
  let store = S.open_ ctx in
  let out = Array.make (n - skip) Output.Ok in
  for idx = from_op + 1 to n do
    if idx <> skip then begin
      let o = S.exec store ops.(idx - 1) in
      if idx > skip then out.(idx - skip - 1) <- o
    end
  done;
  out

(* The [Crashed] description of a replayed op that ran out of fuel. *)
let livelock = "livelock"

(* The failures a store can make visible when it runs over a corrupt
   image, each described as the [Crashed] output that marks it: a
   simulated segfault, a livelock (an op ran out of fuel), a corrupt pool,
   an exhausted heap, a full undo log, a stack overflow, and the runtime
   errors that NVM-derived values raise inside store code (value decoding
   slicing past a corrupt length, [mod] by a corrupt bucket count, a
   structural assertion). [describe_failure run] returns [run ()], or the
   description of one of these failures. Any other exception is a harness
   failure (an interrupt, the OCaml heap running out, a retired trace
   segment) and propagates: it never becomes a verdict. *)
let describe_failure run =
  match run () with
  | v -> Ok v
  | exception Pmem.Fault f ->
    Error (Printf.sprintf "segfault@%d+%d" f.addr f.len)
  | exception Ctx.Fuel_exhausted -> Error livelock
  | exception Pmdk.Pool.Corrupt_pool m -> Error ("corrupt-pool:" ^ m)
  | exception Pmdk.Alloc.Out_of_memory -> Error "heap-exhausted"
  | exception Pmdk.Tx.Log_full -> Error "tx-log-full"
  | exception Stack_overflow -> Error "stack-overflow"
  | exception ((Invalid_argument _ | Division_by_zero | Assert_failure _) as e)
    ->
    Error ("exception:" ^ Printexc.to_string e)

(* Resume from a crash image: open + recover, then run ops with trace
   indices [from_op + 1 .. n], streaming each output through [on_output]
   as soon as it is available. [on_output i out] may return [`Stop] to
   abort the replay — the incremental equivalence checker uses this to
   cut a replay short the moment both oracles are ruled out, so an
   inconsistent image costs O(first divergence) instead of O(suffix).

   [fuel] is a per-op access budget: recovery gets [fuel] accesses, and
   the context is refuelled to [fuel] before every replayed op, so an
   image that livelocks costs about one op's budget however long the
   suffix is. A visible failure ([describe_failure]: simulated segfault,
   an op running dry, corrupt pool, ...) marks every remaining output
   [Crashed] without executing anything further; those backfilled outputs
   still stream through [on_output]. Any other exception propagates.

   Returns the number of operations the replay actually attempted to
   execute (the crashing op counts: its work was done).

   [?read_track] logs the word range of every NVM read into the given
   set. The fence-batched checker uses it to prove two same-fence images
   replay identically: the fresh pool built on the [Corrupt_pool] path is
   image-independent, but we track it too — a superset read set only
   makes inheritance more conservative, never unsound. *)
let resume_stream ?read_track (module S : Store_intf.S) ~image ~ops ~from_op
    ~fuel ~(on_output : int -> Output.t -> [ `Continue | `Stop ]) =
  let n = Array.length ops in
  let suffix_len = n - from_op in
  let executed = ref 0 in
  Obs.Metrics.incr "driver.resumes";
  let ctx = ref (Ctx.create ~mode:Quiet ~fuel image) in
  Ctx.set_read_track !ctx read_track;
  let fail_from i msg =
    let out = Output.Crashed msg in
    let rec go i =
      if i < suffix_len then
        match on_output i out with `Stop -> () | `Continue -> go (i + 1)
    in
    go i
  in
  let opened =
    describe_failure (fun () ->
        try S.open_ !ctx with
        | Pmdk.Pool.Corrupt_pool _ ->
          (* The crash predates pool initialization: the magic never
             became durable. A real deployment re-creates the pool file,
             which is the rolled-back behaviour for the creation op. *)
          ctx := Ctx.create ~mode:Quiet ~fuel (Pmem.create S.pool_size);
          Ctx.set_read_track !ctx read_track;
          S.create !ctx)
  in
  (match opened with
   | Error msg -> fail_from 0 msg
   | Ok store ->
     let rec go i =
       if i < suffix_len then begin
         incr executed;
         Ctx.refuel !ctx fuel;
         match describe_failure (fun () -> S.exec store ops.(from_op + i)) with
         | Ok out ->
           (match on_output i out with `Stop -> () | `Continue -> go (i + 1))
         | Error msg -> fail_from i msg
       end
     in
     go 0);
  !executed

(* Full replay into an array: [resume_stream] with no early abort.
   Returns exactly [n - from_op] outputs. *)
let resume (module S : Store_intf.S) ~image ~ops ~from_op ~fuel =
  let suffix_len = max (Array.length ops - from_op) 0 in
  let results = Array.make (max suffix_len 1) (Output.Crashed "unreached") in
  ignore
    (resume_stream (module S) ~image ~ops ~from_op ~fuel
       ~on_output:(fun i out -> results.(i) <- out; `Continue));
  Array.sub results 0 suffix_len
