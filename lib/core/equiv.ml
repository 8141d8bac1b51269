(* Output equivalence checking (§4.4). A crash NVM image is consistent iff
   the execution resumed from it produces, for every operation after the
   crashed one, the same outputs as one of the two oracles:

   - committed: the crashed operation fully executed — the outputs of the
     original no-crash run;
   - rolled back: the crashed operation never executed — the outputs of a
     fresh run with that operation removed.

   Divergence from both is a true crash-consistency bug (no false
   positives). Rolled-back oracles are memoized per crashed operation.

   The checker is incremental: the resumed execution streams each output
   through it (Driver.resume_stream) and it tracks which of the two
   oracles is still live. The moment both are ruled out the replay is
   aborted — an inconsistent image costs O(first divergence) instead of
   O(suffix), and since buggy images tend to diverge early this is the
   dominant saving of the zero-copy validation path. Consistent images
   still replay in full (one oracle stays live to the end), so the
   verdict is exactly the one the full-replay comparison would reach.

   Three further optimizations, each independently toggleable and each
   verdict-equivalent to the reference [verdict_of_outputs]:

   - lazy oracles: the rolled-back oracle is only built at the first
     committed-oracle divergence, so images that track the committed run
     to the end (the common case) never pay the O(n) oracle run;
   - checkpointed oracles: with record-time snapshots every K ops, a
     forced oracle resumes from the checkpoint preceding the crash op
     instead of re-running from scratch — O(n - k + K) per oracle;
   - digest memoization: images at the same crash op with equal content
     digests (stamped by Crash_gen) reuse the first image's verdict.

   A fourth, [enable_batch], groups the images of one fence: they share
   the persisted base pool and differ only on the words written by the
   stores in the symmetric difference of their extras sets. Each replayed
   image records the word-granular read set of its resumed execution
   (Nvm.Wset via Driver.resume_stream ~read_track); a later image of the
   same fence whose delta words miss that read set would replay
   bit-identically, so its verdict is inherited without resuming
   anything. Replays are deterministic given the bytes they read, which
   makes inheritance verdict-exact, not approximate. Oracle runs are
   never read-tracked: they execute against fresh or checkpointed pools
   that do not vary across the fence group. *)

type verdict =
  | Consistent
  | Inconsistent of {
      first_diff : int;           (* trace op index of first diverging op *)
      got : Output.t;
      expect_committed : Output.t;
      expect_rolled_back : Output.t;
      crashed : bool;             (* divergence was a visible crash *)
    }

(* Replay-work accounting for the per-stage timing split: how many store
   operations the resumed executions actually ran, and how many replays
   the incremental checker cut short. *)
type stats = {
  mutable n_checks : int;
  mutable n_replay_ops : int;   (* ops executed across all resumes *)
  mutable n_early_stops : int;  (* replays aborted before the suffix end *)
  mutable n_oracle_runs : int;  (* rolled-back oracles actually built *)
  mutable n_oracle_ops_saved : int;  (* ops elided by laziness/checkpoints *)
  mutable n_memo_hits : int;    (* verdicts served from the digest memo *)
  mutable n_batch_fences : int; (* fence groups opened by the batched path *)
  mutable n_batch_images : int; (* images that went through a fence group *)
  mutable n_inherit_hits : int; (* verdicts inherited from a group sibling *)
  mutable n_inherit_ops_saved : int;  (* replay ops those replays would cost *)
}

(* One checked image of the current fence group: its extras set, the word
   read set of its replay, its verdict, and the replay length (the saving
   a later inheritor is credited with). *)
type batch_entry = {
  e_extras : int array;
  e_rset : Nvm.Wset.t;
  e_verdict : verdict;
  e_replay : int;
}

type batch_state = {
  mutable bs_fence : int;            (* fence tid of the open group, -1 none *)
  mutable bs_entries : batch_entry list;  (* newest first *)
  mutable bs_count : int;            (* images seen in the open group *)
  mutable bs_free : Nvm.Wset.t list; (* recycled read sets *)
  bs_addr_len : int -> int * int;    (* store tid -> written byte range *)
}

type t = {
  store : Store_intf.instance;
  ops : Op.t array;
  committed : Output.t array;   (* outputs of ops.(i), trace index i+1 *)
  rolled_back : (int, Output.t array) Hashtbl.t;  (* crash op -> oracle *)
  fuel : int;                   (* per-op replay budget *)
  lazy_oracle : bool;           (* defer the oracle to first divergence *)
  memo_on : bool;               (* digest-keyed verdict memoization *)
  mutable checkpoints : (int * Nvm.Pmem.t) array;  (* record snapshots, ascending *)
  memo : (int * int, verdict) Hashtbl.t;  (* (crash op, digest) -> verdict *)
  elided : (int, unit) Hashtbl.t;  (* crash ops checked oracle-free so far *)
  mutable batch : batch_state option;  (* fence batching, off by default *)
  stats : stats;
}

(* The per-op replay budget's floor (Driver.resume_stream ~fuel), in NVM
   accesses. [Engine] raises it to a multiple of the recording's
   costliest op; at the default test sizes the floor is what applies. *)
let default_fuel = 65_536

let create ?(fuel = default_fuel) ?(lazy_oracle = true) ?(memo = true)
    ?(checkpoints = []) store ~ops ~committed =
  Obs.Metrics.set_gauge "equiv.op_fuel" (float_of_int fuel);
  let checkpoints =
    let a = Array.of_list checkpoints in
    Array.sort (fun (i, _) (j, _) -> compare i j) a;
    a
  in
  { store; ops; committed; rolled_back = Hashtbl.create 64; fuel;
    lazy_oracle; memo_on = memo; checkpoints;
    memo = Hashtbl.create 256; elided = Hashtbl.create 64; batch = None;
    stats = { n_checks = 0; n_replay_ops = 0; n_early_stops = 0;
              n_oracle_runs = 0; n_oracle_ops_saved = 0; n_memo_hits = 0;
              n_batch_fences = 0; n_batch_images = 0; n_inherit_hits = 0;
              n_inherit_ops_saved = 0 } }

let stats t = t.stats

(* Replace the checkpoint set. A windowed run maintains a bounded ring
   of snapshots and re-points the checker as it rotates; checkpoints
   only change which snapshot an oracle resumes from (cost), never the
   oracle's outputs, so swapping them mid-run is verdict-neutral. *)
let set_checkpoints t checkpoints =
  let a = Array.of_list checkpoints in
  Array.sort (fun (i, _) (j, _) -> compare i j) a;
  t.checkpoints <- a

let drop_matching_keys tbl pred =
  let dead = Hashtbl.fold (fun k _ acc -> if pred k then k :: acc else acc) tbl [] in
  List.iter (Hashtbl.remove tbl) dead

(* Drop per-crash-op caches below [floor]. As the streaming window slides,
   no future image can crash below the floor, so memoized verdicts,
   rolled-back oracles and lazy-elision marks for those ops can never be
   consulted again — holding them is what would make the checker's heap
   grow with the whole run. *)
let forget_before t ~floor =
  drop_matching_keys t.rolled_back (fun op -> op < floor);
  drop_matching_keys t.elided (fun op -> op < floor);
  drop_matching_keys t.memo (fun (op, _) -> op < floor)

(* Fence batching. [addr_len tid] must give the byte range written by the
   store with that trace id (the caller has the trace; this module does
   not). The fence key passed to [check ~fence] is the fence's trace id,
   unique per fence event, so consecutive checks of one fence's images
   land in one group. *)
let enable_batch t ~addr_len =
  t.batch <-
    Some { bs_fence = -1; bs_entries = []; bs_count = 0; bs_free = [];
           bs_addr_len = addr_len }

let close_group bs =
  if bs.bs_count > 0 then
    Obs.Metrics.observe "equiv.batch_group_images" bs.bs_count;
  List.iter (fun e -> bs.bs_free <- e.e_rset :: bs.bs_free) bs.bs_entries;
  bs.bs_entries <- [];
  bs.bs_count <- 0;
  bs.bs_fence <- -1

(* Close the open fence group (records the final images-per-batch
   histogram sample); call once after the last image of a run. *)
let flush_batch t = match t.batch with Some bs -> close_group bs | None -> ()

let acquire_wset bs =
  match bs.bs_free with
  | w :: rest -> bs.bs_free <- rest; Nvm.Wset.clear w; w
  | [] -> Nvm.Wset.create ()

(* Would [extras] replay exactly like entry [e]? The two images differ
   only on the words written by stores in the symmetric difference of
   the extras sets (shared extras write identical payloads onto the
   shared persisted base). If none of those words were read by [e]'s
   replay, the replay from the new image reads the same bytes, executes
   the same path, and reaches the same verdict. *)
let entry_inherits bs e (extras : int array) =
  let delta_clean tid =
    let addr, len = bs.bs_addr_len tid in
    not (Nvm.Wset.mem_range e.e_rset addr len)
  in
  let a = e.e_extras and b = extras in
  let la = Array.length a and lb = Array.length b in
  let rec walk i j =
    if i < la && j < lb then begin
      let x = Array.unsafe_get a i and y = Array.unsafe_get b j in
      if x = y then walk (i + 1) (j + 1)
      else if x < y then delta_clean x && walk (i + 1) j
      else delta_clean y && walk i (j + 1)
    end
    else if i < la then delta_clean a.(i) && walk (i + 1) j
    else if j < lb then delta_clean b.(j) && walk i (j + 1)
    else true
  in
  walk 0 0

(* Reference oracle construction: a fresh run with op k removed. *)
let oracle_full_rerun t k =
  let n = Array.length t.ops in
  let ops' = List.filteri (fun i _ -> i <> k - 1) (Array.to_list t.ops) in
  let outs = Driver.run_quiet t.store ops' in
  (* outputs for ops k+1..n are at positions k-1 .. n-2 *)
  Array.sub outs (k - 1) (n - k)

(* Oracle for a crash at trace op index k: outputs of ops after k when
   op k is rolled back. k = 0 (creation) rolls back to the committed
   behaviour (the pool is simply re-created). With checkpoints, the
   oracle for k >= 1 resumes from the latest snapshot taken at or before
   op k - 1 and replays only the suffix — the per-oracle cost drops from
   O(n) to O(n - k + stride). A store-visible failure of the checkpoint
   resume ([Driver.describe_failure]) falls back to the full re-run, so
   checkpointing can never change a verdict's availability, only its
   cost; a harness failure propagates. *)
let rolled_back_oracle t k =
  match Hashtbl.find_opt t.rolled_back k with
  | Some o -> o
  | None ->
    let n = Array.length t.ops in
    let oracle =
      if k = 0 then Array.sub t.committed 0 n
      else begin
        t.stats.n_oracle_runs <- t.stats.n_oracle_runs + 1;
        Obs.Metrics.incr "equiv.oracle_runs";
        (* A lazily elided oracle being forced after all: give back the
           provisional saving before accounting the real cost. *)
        if Hashtbl.mem t.elided k then begin
          Hashtbl.remove t.elided k;
          t.stats.n_oracle_ops_saved <-
            t.stats.n_oracle_ops_saved - (n - 1);
          Obs.Metrics.incr ~n:(-(n - 1)) "equiv.oracle_ops_saved"
        end;
        let ckpt =
          Array.fold_left
            (fun acc (j, p) -> if j <= k - 1 then Some (j, p) else acc)
            None t.checkpoints
        in
        let ev_oracle via from_op =
          if Obs.Event.enabled () then
            ignore
              (Obs.Event.emit "oracle"
                 ~fields:
                   [ ("op", Obs.Jsonx.Int k); ("via", Obs.Jsonx.Str via);
                     ("from_op", Obs.Jsonx.Int from_op) ])
        in
        let full () = ev_oracle "full" 0; oracle_full_rerun t k in
        match ckpt with
        | Some (j, pool) ->
          (match
             Driver.describe_failure (fun () ->
                 Driver.oracle_from_checkpoint t.store ~checkpoint:pool
                   ~ops:t.ops ~from_op:j ~skip:k)
           with
           | Ok o ->
             t.stats.n_oracle_ops_saved <- t.stats.n_oracle_ops_saved + j;
             Obs.Metrics.incr ~n:j "equiv.oracle_ops_saved";
             ev_oracle "ckpt" j;
             o
           | Error _ -> full ())
        | None -> full ()
      end
    in
    Hashtbl.replace t.rolled_back k oracle;
    oracle

(* Reference verdict over fully-materialized output arrays; the streaming
   checker must agree with it. [committed] and [rolled_back] give oracle
   outputs by suffix position. The reported [first_diff] is the earliest
   index at which the resumed run diverges from *either* oracle: the two
   oracles may die at different indices, and the earliest divergence is
   where the inconsistency starts. *)
let verdict_of_outputs ~crash_op ~(got : Output.t array)
    ~(committed : int -> Output.t) ~(rolled_back : int -> Output.t) =
  let suffix_len = Array.length got in
  let matches oracle_at =
    let rec go i =
      i >= suffix_len || (Output.equal got.(i) (oracle_at i) && go (i + 1))
    in
    go 0
  in
  if suffix_len = 0 || matches committed || matches rolled_back then
    Consistent
  else begin
    let rec first i =
      if i >= suffix_len then suffix_len - 1 (* unreachable: both diverged *)
      else if not (Output.equal got.(i) (committed i))
           || not (Output.equal got.(i) (rolled_back i)) then i
      else first (i + 1)
    in
    let i = first 0 in
    let crashed =
      Array.exists (function Output.Crashed _ -> true | _ -> false) got
    in
    Inconsistent
      { first_diff = crash_op + i + 1;
        got = got.(i);
        expect_committed = committed i;
        expect_rolled_back = rolled_back i;
        crashed }
  end

let check_replay ?read_track t ~img ~crash_op =
  let n = Array.length t.ops in
  let k = crash_op in
  let suffix_len = n - k in
  let committed_suffix i = t.committed.(k + i) in
  (* In lazy mode the rolled-back oracle stays unforced while the replay
     tracks the committed oracle; the common consistent image never pays
     the oracle run at all. *)
  let rb = ref (if t.lazy_oracle then None else Some (rolled_back_oracle t k)) in
  let got = Array.make suffix_len Output.Ok in  (* streamed prefix buffer *)
  let c_live = ref true and r_live = ref true in
  (* earliest index diverging from either oracle, and the output there *)
  let first_div = ref (-1) in
  let div_got = ref Output.Ok in
  let crashed = ref false in
  let stopped_at = ref (-1) in
  (* Force the oracle at the first committed divergence (index [upto] + 1)
     and rescan the buffered prefix against it, reconstructing exactly the
     r_live / first_div state the eager checker would hold here: while the
     oracle was deferred every output matched the committed oracle, so the
     prefix scan is the only comparison that was skipped. *)
  let force_rb upto =
    let o = rolled_back_oracle t k in
    rb := Some o;
    let i = ref 0 in
    while !r_live && !i <= upto do
      if not (Output.equal got.(!i) o.(!i)) then begin
        r_live := false;
        if !first_div < 0 then begin
          first_div := !i;
          div_got := got.(!i)
        end
      end;
      incr i
    done;
    o
  in
  let on_output i out =
    (match out with
     | Output.Crashed m ->
       (* the first crashed output is the failure itself *)
       if not !crashed && m = Driver.livelock then
         Obs.Metrics.incr "equiv.livelocks";
       crashed := true
     | _ -> ());
    got.(i) <- out;
    let c_eq = Output.equal out (committed_suffix i) in
    match !rb with
    | None when c_eq -> `Continue  (* tracking committed, oracle deferred *)
    | (None | Some _) as cur ->
      let o = match cur with Some o -> o | None -> force_rb (i - 1) in
      let r_eq = Output.equal out o.(i) in
      let c_ok = !c_live && c_eq in
      let r_ok = !r_live && r_eq in
      if !first_div < 0 && (not c_eq || not r_eq) then begin
        first_div := i;
        div_got := out
      end;
      c_live := c_ok;
      r_live := r_ok;
      if not c_ok && not r_ok then begin
        stopped_at := i;
        `Stop
      end
      else `Continue
  in
  let executed =
    Driver.resume_stream ?read_track t.store ~image:img ~ops:t.ops ~from_op:k
      ~fuel:t.fuel ~on_output
  in
  t.stats.n_replay_ops <- t.stats.n_replay_ops + executed;
  Obs.Metrics.incr "equiv.checks";
  Obs.Metrics.incr ~n:executed "equiv.replay_ops";
  (* exemplar: links the histogram's max replay back to the image event
     whose check drove it (the fused pipeline makes the attribution
     exact); -1 outside an event-logged run *)
  Obs.Metrics.observe ~ev:!Obs.Event.last_image_id "equiv.replay_len" executed;
  if !c_live || !r_live then begin
    (* Consistent with the oracle never forced: one full oracle run (the
       eager checker's run_quiet for this crash op) was elided. Counted
       once per crash op and repaid in [rolled_back_oracle] if a later
       image at the same op forces it. *)
    (match !rb with
     | None
       when k > 0
         && not (Hashtbl.mem t.rolled_back k)
         && not (Hashtbl.mem t.elided k) ->
       Hashtbl.add t.elided k ();
       t.stats.n_oracle_ops_saved <- t.stats.n_oracle_ops_saved + (n - 1);
       Obs.Metrics.incr ~n:(n - 1) "equiv.oracle_ops_saved"
     | _ -> ());
    Consistent
  end
  else begin
    if !stopped_at < suffix_len - 1 then begin
      t.stats.n_early_stops <- t.stats.n_early_stops + 1;
      Obs.Metrics.incr "equiv.early_stops";
      (* how deep into the suffix the replay got before both oracles
         died: the early-abort saving is suffix_len - depth per image *)
      Obs.Metrics.observe "equiv.early_stop_depth" !stopped_at
    end;
    let i = !first_div in
    let o = match !rb with Some o -> o | None -> assert false in
    Inconsistent
      { first_diff = k + i + 1;
        got = !div_got;
        expect_committed = committed_suffix i;
        expect_rolled_back = o.(i);
        crashed = !crashed }
  end

(* Batched check of one image within its fence group: try to inherit a
   sibling's verdict, else replay with read tracking and record an entry
   for later siblings. Inherited images are not recorded — their read
   sets equal the donor's, so recording them adds scan cost without new
   inheritance power. *)
let max_group_entries = 64

let check_grouped t bs ~img ~crash_op ~fence ~extras =
  if fence <> bs.bs_fence then begin
    close_group bs;
    bs.bs_fence <- fence;
    t.stats.n_batch_fences <- t.stats.n_batch_fences + 1;
    Obs.Metrics.incr "equiv.batch_fences"
  end;
  bs.bs_count <- bs.bs_count + 1;
  t.stats.n_batch_images <- t.stats.n_batch_images + 1;
  match List.find_opt (fun e -> entry_inherits bs e extras) bs.bs_entries with
  | Some e ->
    t.stats.n_inherit_hits <- t.stats.n_inherit_hits + 1;
    t.stats.n_inherit_ops_saved <- t.stats.n_inherit_ops_saved + e.e_replay;
    Obs.Metrics.incr "equiv.inherit_hits";
    Obs.Metrics.incr ~n:e.e_replay "equiv.inherit_ops_saved";
    e.e_verdict
  | None ->
    let rset = acquire_wset bs in
    let replay_before = t.stats.n_replay_ops in
    let v = check_replay ~read_track:rset t ~img ~crash_op in
    if List.length bs.bs_entries < max_group_entries then
      bs.bs_entries <-
        { e_extras = extras; e_rset = rset; e_verdict = v;
          e_replay = t.stats.n_replay_ops - replay_before }
        :: bs.bs_entries
    else bs.bs_free <- rset :: bs.bs_free;
    v

(* [digest], when provided (Crash_gen stamps one on every image), keys the
   verdict memo: two images at the same crash op with equal digests hold
   byte-identical guaranteed content, so the replay verdict of the first
   is returned for the second without resuming anything.

   [fence]/[extras] (Crash_gen stamps both) route the check through the
   fence group when batching is enabled. The memo is consulted first — a
   memo hit drops the image from the batch before any replay — and an
   inherited verdict is memoized like a replayed one. *)
let check ?digest ?fence ?extras t ~img ~crash_op =
  let n = Array.length t.ops in
  let suffix_len = n - crash_op in
  t.stats.n_checks <- t.stats.n_checks + 1;
  if suffix_len <= 0 then Consistent  (* crash after the last op *)
  else begin
    let memo_key =
      match digest with
      | Some d when t.memo_on -> Some (crash_op, d)
      | _ -> None
    in
    match Option.bind memo_key (Hashtbl.find_opt t.memo) with
    | Some v ->
      t.stats.n_memo_hits <- t.stats.n_memo_hits + 1;
      Obs.Metrics.incr "equiv.memo_hits";
      v
    | None ->
      let v =
        match t.batch, fence, extras with
        | Some bs, Some fence, Some extras ->
          check_grouped t bs ~img ~crash_op ~fence ~extras
        | _ -> check_replay t ~img ~crash_op
      in
      (match memo_key with
       | Some key -> Hashtbl.replace t.memo key v
       | None -> ());
      v
  end
