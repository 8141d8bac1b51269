(* Reference (pre-fast-path) front end: the inference and image-generation
   algorithms as they were before sids were interned and the trace went
   columnar. Kept verbatim in cost structure —

   - [infer] walks reconstructed events ([Trace.iter] + match), resolves
     taint members through [Trace.get], and backs the per-word condition
     and guardian indexes with hash tables of list refs; [conds_for]
     allocates a word list per lookup ([Infer.words]' [List.init]) and
     re-filters the bucket lists each time.
   - [generate] keeps its own tid -> store_ev hash table (the lookup the
     old Crash_sim provided), a per-word latest-store hash table, and
     string-keyed site caps (sids converted back to strings per image,
     like the old string-sid events).

   — so it pins the semantics the fast path must keep, over the same
   trace and the same (shared) crash simulator backend. Both paths
   produce identical condition counts, image digest sequences, stats and
   cluster reports; a qcheck property in test/test_frontend.ml asserts
   this.

   Two deliberate departures from the historical code, both needed for
   parity (documented here so the baseline isn't mistaken for bug-for-bug
   archaeology): the epoch dedup table is keyed on the condition tuple
   itself rather than its [Hashtbl.hash] (the collision bug fixed in the
   fast path — keeping the bug here would make parity flaky), and
   [path_hash] folds interned sid ints exactly like the fast path (the
   old string-hash fold partitions paths the same way but with different
   hash values, which would break cluster-report equality). *)

open Nvm

type t = {
  po_index : (int, Infer.po list ref) Hashtbl.t;  (* watch word -> conds *)
  guardian_index : (int, Infer.cell list ref) Hashtbl.t;
  mutable n_guardians : int;
  mutable n_po1 : int;
  mutable n_po2 : int;
  mutable n_po3 : int;
}

let n_ordering t = t.n_po1 + t.n_po2 + t.n_po3
let n_atomicity t = t.n_guardians * (t.n_guardians - 1) / 2
let n_guardians t = t.n_guardians

let cell_of_load (l : Trace.load_ev) : Infer.cell =
  { c_addr = l.l_addr; c_len = l.l_len; c_sid = l.l_sid }

let add_po (t : t) seen ~(watch : Infer.cell) ~(req : Infer.cell) rule =
  if not (Infer.overlap watch.c_addr watch.c_len req.c_addr req.c_len)
  then begin
    let key = (watch.c_addr, watch.c_len, req.c_addr, req.c_len, rule) in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      (match rule with
       | Infer.PO1 -> t.n_po1 <- t.n_po1 + 1
       | Infer.PO2 -> t.n_po2 <- t.n_po2 + 1
       | Infer.PO3 -> t.n_po3 <- t.n_po3 + 1);
      let cond : Infer.po = { watch; req; rule } in
      List.iter
        (fun w ->
           match Hashtbl.find_opt t.po_index w with
           | Some l -> l := cond :: !l
           | None -> Hashtbl.add t.po_index w (ref [ cond ]))
        (Infer.words watch.c_addr watch.c_len)
    end
  end

let add_guardian t seen_g (cell : Infer.cell) =
  let key = (cell.c_addr, cell.c_len) in
  if not (Hashtbl.mem seen_g key) then begin
    Hashtbl.add seen_g key ();
    t.n_guardians <- t.n_guardians + 1;
    List.iter
      (fun w ->
         match Hashtbl.find_opt t.guardian_index w with
         | Some l -> l := cell :: !l
         | None -> Hashtbl.add t.guardian_index w (ref [ cell ]))
      (Infer.words cell.c_addr cell.c_len)
  end

let infer (trace : Trace.t) =
  let t =
    { po_index = Hashtbl.create 4096;
      guardian_index = Hashtbl.create 256;
      n_guardians = 0; n_po1 = 0; n_po2 = 0; n_po3 = 0 }
  in
  let seen = Hashtbl.create 8192 in
  let seen_g = Hashtbl.create 256 in
  let load_of tid =
    match Trace.get trace tid with
    | Trace.Load l -> Some l
    | _ -> None
  in
  Trace.iter
    (fun ev ->
       match ev with
       | Trace.Store s ->
         let y : Infer.cell =
           { c_addr = s.s_addr; c_len = s.s_len; c_sid = s.s_sid }
         in
         Taint.fold
           (fun tid () ->
              match load_of tid with
              | Some l -> add_po t seen ~watch:y ~req:(cell_of_load l) Infer.PO1
              | None -> ())
           s.s_dd ();
         Taint.fold
           (fun tid () ->
              match load_of tid with
              | Some l -> add_po t seen ~watch:y ~req:(cell_of_load l) Infer.PO2
              | None -> ())
           s.s_cd ()
       | Trace.Load l when not (Taint.is_empty l.l_cd) ->
         let y = cell_of_load l in
         Taint.fold
           (fun tid () ->
              match load_of tid with
              | Some g ->
                let x = cell_of_load g in
                if not (Infer.overlap x.c_addr x.c_len y.c_addr y.c_len) then begin
                  add_po t seen ~watch:x ~req:y Infer.PO3;
                  add_guardian t seen_g x
                end
              | None -> ())
           l.l_cd ()
       | _ -> ())
    trace;
  t

(* Conditions whose watch cell overlaps a store to [addr,len). *)
let conds_for t addr len =
  List.concat_map
    (fun w ->
       match Hashtbl.find_opt t.po_index w with
       | Some l ->
         List.filter
           (fun (c : Infer.po) ->
              Infer.overlap c.watch.c_addr c.watch.c_len addr len)
           !l
       | None -> [])
    (Infer.words addr len)

(* Guardian cells overlapping a store to [addr,len). *)
let guardians_for t addr len =
  List.concat_map
    (fun w ->
       match Hashtbl.find_opt t.guardian_index w with
       | Some l ->
         List.filter
           (fun (c : Infer.cell) -> Infer.overlap c.c_addr c.c_len addr len)
           !l
       | None -> [])
    (Infer.words addr len)

(* The pre-PR persistence simulator, verbatim in cost structure: per-store
   hash-table entries ([store_pos]/[store_ev]), boxed-event dispatch, and
   Set.Make-based feasibility. Digest seeding and mixing are identical to
   the fast simulator ([Trace.store_mix] is defined as
   [Pmem.mix_string (Pmem.mix h addr) data]), so the image digest
   sequences the parity property compares are byte-for-byte equal. *)
module Sim_ref = struct
  type line_state = {
    seq : int Vec.t;
    mutable pending_upto : int;
    mutable guaranteed_upto : int;
  }

  type pos = { p_line : int; p_idx : int }

  type t = {
    lines : (int, line_state) Hashtbl.t;
    store_pos : (int, pos) Hashtbl.t;
    store_ev : (int, Trace.store_ev) Hashtbl.t;
    mutable touched : int list;
    persisted : Pmem.t;
    mutable bytes_materialized : int;
    mutable digest : int;
  }

  let create ~pool_size =
    { lines = Hashtbl.create 1024;
      store_pos = Hashtbl.create 4096;
      store_ev = Hashtbl.create 4096;
      touched = [];
      persisted = Pmem.create pool_size;
      bytes_materialized = 0;
      digest = 0x1505 }

  let line_state t line =
    match Hashtbl.find_opt t.lines line with
    | Some ls -> ls
    | None ->
      let ls =
        { seq = Vec.create ~dummy:(-1) (); pending_upto = 0; guaranteed_upto = 0 }
      in
      Hashtbl.add t.lines line ls;
      ls

  let on_store t (s : Trace.store_ev) =
    let line = Pmem.line_of_addr s.s_addr in
    let ls = line_state t line in
    Hashtbl.replace t.store_pos s.s_tid
      { p_line = line; p_idx = Vec.length ls.seq };
    Hashtbl.replace t.store_ev s.s_tid s;
    Vec.push ls.seq s.s_tid

  let on_flush t line =
    let ls = line_state t line in
    if ls.pending_upto < Vec.length ls.seq then begin
      ls.pending_upto <- Vec.length ls.seq;
      t.touched <- line :: t.touched
    end

  let on_fence t =
    List.iter
      (fun line ->
         let ls = line_state t line in
         for i = ls.guaranteed_upto to ls.pending_upto - 1 do
           let tid = Vec.get ls.seq i in
           let s = Hashtbl.find t.store_ev tid in
           Pmem.write_bytes t.persisted s.s_addr s.s_data;
           t.digest <- Pmem.mix_string (Pmem.mix t.digest s.s_addr) s.s_data
         done;
         if ls.guaranteed_upto < ls.pending_upto then
           ls.guaranteed_upto <- ls.pending_upto)
      t.touched;
    t.touched <- []

  let on_event t = function
    | Trace.Store s -> on_store t s
    | Trace.Flush f -> on_flush t f.f_line
    | Trace.Fence _ -> on_fence t
    | _ -> ()

  let is_guaranteed t tid =
    match Hashtbl.find_opt t.store_pos tid with
    | None -> false
    | Some p ->
      let ls = Hashtbl.find t.lines p.p_line in
      p.p_idx < ls.guaranteed_upto

  let closure_one t tid =
    match Hashtbl.find_opt t.store_pos tid with
    | None -> []
    | Some p ->
      let ls = Hashtbl.find t.lines p.p_line in
      let rec collect i acc =
        if i > p.p_idx then List.rev acc
        else collect (i + 1) (Vec.get ls.seq i :: acc)
      in
      collect ls.guaranteed_upto []

  let feasible_extras t ~persist ~avoid =
    if List.exists (is_guaranteed t) avoid then None
    else begin
      let module IS = Set.Make (Int) in
      let extras =
        List.fold_left
          (fun acc tid -> IS.union acc (IS.of_list (closure_one t tid)))
          IS.empty persist
      in
      if List.exists (fun a -> IS.mem a extras) avoid then None
      else Some (IS.elements extras)
    end

  let materialize t ~extras =
    let img = Pmem.cow t.persisted in
    List.iter
      (fun tid ->
         match Hashtbl.find_opt t.store_ev tid with
         | Some s ->
           Pmem.write_bytes img s.s_addr s.s_data;
           t.bytes_materialized <- t.bytes_materialized + s.s_len
         | None -> ())
      (List.sort compare extras);
    img

  let image_digest t img = Pmem.digest ~seed:t.digest img

  let bytes_materialized t = t.bytes_materialized
end

type epoch_cand =
  | C_po of Infer.po * int
  | C_guardian of Infer.cell * int

let generate ?(cfg = Crash_gen.default_cfg) ~trace ~(conds : t) ~pool_size
    ~on_image () =
  let open Crash_gen in
  let sim = Sim_ref.create ~pool_size in
  let stats =
    { candidates = 0; generated = 0; eligible = 0; deferred = 0; tested = 0;
      bytes_materialized = 0; per_op_images = Hashtbl.create 64 }
  in
  (* tid -> store event, populated per store: the lookup table the old
     Crash_sim carried *)
  let store_evs : (int, Trace.store_ev) Hashtbl.t = Hashtbl.create 4096 in
  let last_store_word : (int, int) Hashtbl.t = Hashtbl.create 4096 in
  let epoch : epoch_cand list ref = ref [] in
  let epoch_seen : (Infer.cell * Infer.cell * Infer.rule, unit) Hashtbl.t =
    Hashtbl.create 64
  in
  let site_count : (string * string * int, int) Hashtbl.t = Hashtbl.create 256 in
  let img_seen : (int * int, unit) Hashtbl.t = Hashtbl.create 1024 in
  let path_hash = ref 0 in
  let stop = ref false in
  let bump_op_count op =
    Hashtbl.replace stats.per_op_images op
      (1 + Option.value ~default:0 (Hashtbl.find_opt stats.per_op_images op))
  in
  let latest_store_to (cell : Infer.cell) =
    List.fold_left
      (fun acc w ->
         match Hashtbl.find_opt last_store_word w with
         | Some tid ->
           (match Hashtbl.find_opt store_evs tid with
            | Some s when Infer.overlap s.s_addr s.s_len cell.c_addr cell.c_len ->
              (match acc with
               | Some best when best >= tid -> acc
               | _ -> Some tid)
            | _ -> acc)
         | None -> acc)
      None
      (Infer.words cell.c_addr cell.c_len)
  in
  let sid_of_store tid =
    match Hashtbl.find_opt store_evs tid with
    | Some s -> s.s_sid
    | None -> Sid.intern "?"
  in
  let site_ok key =
    let n = Option.value ~default:0 (Hashtbl.find_opt site_count key) in
    if n >= cfg.per_site_cap then false
    else begin
      Hashtbl.replace site_count key (n + 1);
      true
    end
  in
  let emit ~fence_tid ~op ~persist_tid ~avoid_tid ~viol ~site_key =
    if not !stop then begin
      match Sim_ref.feasible_extras sim ~persist:[ persist_tid ] ~avoid:[ avoid_tid ] with
      | None -> ()
      | Some extras ->
        stats.candidates <- stats.candidates + 1;
        let img_key = (fence_tid, Hashtbl.hash extras) in
        if not (Hashtbl.mem img_seen img_key) then begin
          Hashtbl.add img_seen img_key ();
          stats.generated <- stats.generated + 1;
          bump_op_count op;
          if stats.eligible < cfg.max_images && site_ok site_key then begin
            stats.eligible <- stats.eligible + 1;
            stats.tested <- stats.tested + 1;
            let img = Sim_ref.materialize sim ~extras in
            let image =
              { img; crash_tid = fence_tid; crash_op = op; viol;
                path_hash = !path_hash; path_sig = !path_hash;
                extras = Array.of_list extras;
                digest = Sim_ref.image_digest sim img }
            in
            match on_image image with
            | `Continue -> ()
            | `Stop -> stop := true
          end
        end
    end
  in
  let process_fence fence_tid fence_sid op =
    let generated_before = stats.generated in
    (match
       List.find_opt
         (function C_po (_, tid) | C_guardian (_, tid) ->
            not (Sim_ref.is_guaranteed sim tid))
         !epoch
     with
     | Some cand when not !stop ->
       let first_lost =
         match cand with C_po (_, tid) | C_guardian (_, tid) -> tid
       in
       stats.candidates <- stats.candidates + 1;
       let img_key = (fence_tid, 0) in
       if not (Hashtbl.mem img_seen img_key) then begin
         Hashtbl.add img_seen img_key ();
         stats.generated <- stats.generated + 1;
         bump_op_count op;
         let site_key = (Sid.to_string fence_sid, "baseline", 2) in
         if stats.eligible < cfg.max_images && site_ok site_key then begin
           stats.eligible <- stats.eligible + 1;
           stats.tested <- stats.tested + 1;
           let img = Sim_ref.materialize sim ~extras:[] in
           let image =
             { img; crash_tid = fence_tid; crash_op = op;
               viol =
                 Unpersisted_epoch
                   { fence_sid; first_lost_sid = sid_of_store first_lost };
               path_hash = !path_hash; path_sig = !path_hash; extras = [||];
               digest = Sim_ref.image_digest sim img }
           in
           match on_image image with
           | `Continue -> ()
           | `Stop -> stop := true
         end
       end
     | _ -> ());
    List.iter
      (function
        | C_po (po, sy_tid) ->
          (match latest_store_to po.Infer.req with
           | Some sx_tid when sx_tid <> sy_tid ->
             let viol =
               Ordering
                 { rule = po.rule;
                   watch_sid = sid_of_store sy_tid;
                   req_sid = sid_of_store sx_tid;
                   watch_tid = sy_tid; req_tid = sx_tid }
             in
             let site_key =
               (Sid.to_string (sid_of_store sy_tid),
                Sid.to_string (sid_of_store sx_tid), 0)
             in
             emit ~fence_tid ~op ~persist_tid:sy_tid ~avoid_tid:sx_tid
               ~viol ~site_key
           | _ -> ())
        | C_guardian _ -> ())
      !epoch;
    let guardian_stores =
      List.filter_map
        (function C_guardian (c, tid) -> Some (c, tid) | C_po _ -> None)
        !epoch
    in
    let pairs = ref 0 in
    let rec all_pairs = function
      | [] -> ()
      | (c1, t1) :: rest ->
        List.iter
          (fun (c2, t2) ->
             if t1 <> t2
             && not (Infer.overlap c1.Infer.c_addr c1.c_len c2.Infer.c_addr c2.c_len)
             && !pairs < cfg.max_pa_pairs_per_fence then begin
               incr pairs;
               let mk persisted lost =
                 Atomicity
                   { persisted_sid = sid_of_store persisted;
                     lost_sid = sid_of_store lost;
                     persisted_tid = persisted; lost_tid = lost }
               in
               emit ~fence_tid ~op ~persist_tid:t1 ~avoid_tid:t2
                 ~viol:(mk t1 t2)
                 ~site_key:(Sid.to_string (sid_of_store t1),
                            Sid.to_string (sid_of_store t2), 1);
               emit ~fence_tid ~op ~persist_tid:t2 ~avoid_tid:t1
                 ~viol:(mk t2 t1)
                 ~site_key:(Sid.to_string (sid_of_store t2),
                            Sid.to_string (sid_of_store t1), 1)
             end)
          rest;
        all_pairs rest
    in
    all_pairs guardian_stores;
    Obs.Metrics.observe "crash_gen.images_per_fence"
      (stats.generated - generated_before);
    epoch := [];
    Hashtbl.reset epoch_seen
  in
  Trace.iter
    (fun ev ->
       if not !stop then begin
         (match ev with
          | Trace.Op_begin _ -> path_hash := 0
          | Trace.Load l -> path_hash := path_hash_step !path_hash l.l_sid
          | Trace.Store s -> path_hash := path_hash_step !path_hash s.s_sid
          | _ -> ());
         (match ev with
          | Trace.Store s ->
            Hashtbl.replace store_evs s.s_tid s;
            List.iter
              (fun w -> Hashtbl.replace last_store_word w s.s_tid)
              (Infer.words s.s_addr s.s_len);
            List.iter
              (fun (po : Infer.po) ->
                 let key = (po.watch, po.req, po.rule) in
                 if not (Hashtbl.mem epoch_seen key) then begin
                   Hashtbl.add epoch_seen key ();
                   epoch := C_po (po, s.s_tid) :: !epoch
                 end)
              (conds_for conds s.s_addr s.s_len);
            List.iter
              (fun g -> epoch := C_guardian (g, s.s_tid) :: !epoch)
              (guardians_for conds s.s_addr s.s_len)
          | Trace.Fence f -> process_fence f.n_tid f.n_sid f.n_op
          | _ -> ());
         Sim_ref.on_event sim ev
       end)
    trace;
  stats.bytes_materialized <- Sim_ref.bytes_materialized sim;
  stats
