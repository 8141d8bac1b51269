(* Reference front end for the parity property in test_frontend.ml:
   inference and crash-image generation written over the events
   [Trace.get] rebuilds, with hash-table indexes instead of Infer's word
   arrays and packed dedup set, and with every persistency question —
   guarantee, closure, feasibility and the image itself — answered by
   Persist_model instead of Crash_sim. Equal condition counts, generation
   stats and images from both front ends license the fast path's
   indexes, closure slices and copy-on-write images.

   A condition here is its own (watch, req, rule) record, with no id,
   and the epoch dedup table is keyed on that record itself (a hash of
   it could conflate distinct conditions). The fast path instead stamps
   each condition's dense [Infer] id, so the parity property compares
   id-stamped dedup against structural dedup. *)

open Nvm
module Infer = Witcher.Infer
module M = Persist_model

type cell = { addr : int; len : int }
type cond = { watch : cell; req : cell; rule : Infer.rule }

type t = {
  po_index : (int, cond list ref) Hashtbl.t;  (* watch word -> conds *)
  guardian_index : (int, cell list ref) Hashtbl.t;
  mutable n_guardians : int;
  mutable n_po1 : int;
  mutable n_po2 : int;
  mutable n_po3 : int;
}

let cell_of_load (l : Trace.load_ev) = { addr = l.l_addr; len = l.l_len }

let add_po (t : t) seen ~watch ~req rule =
  if not (Infer.overlap watch.addr watch.len req.addr req.len) then begin
    let cond = { watch; req; rule } in
    if not (Hashtbl.mem seen cond) then begin
      Hashtbl.add seen cond ();
      (match rule with
       | Infer.PO1 -> t.n_po1 <- t.n_po1 + 1
       | Infer.PO2 -> t.n_po2 <- t.n_po2 + 1
       | Infer.PO3 -> t.n_po3 <- t.n_po3 + 1);
      List.iter
        (fun w ->
           match Hashtbl.find_opt t.po_index w with
           | Some l -> l := cond :: !l
           | None -> Hashtbl.add t.po_index w (ref [ cond ]))
        (Infer.words watch.addr watch.len)
    end
  end

let add_guardian t seen_g cell =
  if not (Hashtbl.mem seen_g cell) then begin
    Hashtbl.add seen_g cell ();
    t.n_guardians <- t.n_guardians + 1;
    List.iter
      (fun w ->
         match Hashtbl.find_opt t.guardian_index w with
         | Some l -> l := cell :: !l
         | None -> Hashtbl.add t.guardian_index w (ref [ cell ]))
      (Infer.words cell.addr cell.len)
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
         let y = { addr = s.s_addr; len = s.s_len } in
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
                if not (Infer.overlap x.addr x.len y.addr y.len) then begin
                  add_po t seen ~watch:x ~req:y Infer.PO3;
                  add_guardian t seen_g x
                end
              | None -> ())
           l.l_cd ()
       | _ -> ())
    trace;
  t

(* The entries of [index] overlapping a store to [addr,len). *)
let overlapping index overlaps addr len =
  List.concat_map
    (fun w ->
       match Hashtbl.find_opt index w with
       | Some l -> List.filter (fun x -> overlaps x addr len) !l
       | None -> [])
    (Infer.words addr len)

let conds_for t =
  overlapping t.po_index (fun c -> Infer.overlap c.watch.addr c.watch.len)

let guardians_for t =
  overlapping t.guardian_index (fun c -> Infer.overlap c.addr c.len)

(* An epoch entry. The epoch is a cons list, newest entry first: the
   order in which the fast path reads its epoch columns. *)
type epoch_entry =
  | E_cond of cond * int         (* condition, watch store tid *)
  | E_guardian of cell * int     (* guardian cell, store tid *)

let generate ?(cfg = Witcher.Crash_gen.default_cfg) ~trace ~(conds : t)
    ~pool_size ~on_image () =
  let open Witcher.Crash_gen in
  let m = M.create () in
  let stats =
    { candidates = 0; generated = 0; deferred = 0; tested = 0;
      bytes_materialized = 0; per_op_images = Hashtbl.create 64 }
  in
  let store_evs : (int, Trace.store_ev) Hashtbl.t = Hashtbl.create 4096 in
  let last_store_word : (int, int) Hashtbl.t = Hashtbl.create 4096 in
  let epoch : epoch_entry list ref = ref [] in
  let epoch_seen : (cond, unit) Hashtbl.t = Hashtbl.create 64 in
  let site_count : (int * int * int, int) Hashtbl.t = Hashtbl.create 256 in
  let img_seen : (int * int, unit) Hashtbl.t = Hashtbl.create 1024 in
  let path_hash = ref 0 in
  let stop = ref false in
  let latest_store_to cell =
    List.fold_left
      (fun acc w ->
         match Hashtbl.find_opt last_store_word w with
         | Some tid ->
           let s = Hashtbl.find store_evs tid in
           if not (Infer.overlap s.s_addr s.s_len cell.addr cell.len) then acc
           else (match acc with Some best when best >= tid -> acc | _ -> Some tid)
         | None -> acc)
      None
      (Infer.words cell.addr cell.len)
  in
  let sid_of_store tid = (Hashtbl.find store_evs tid).s_sid in
  let site_ok key =
    let n = Option.value ~default:0 (Hashtbl.find_opt site_count key) in
    if n >= cfg.per_site_cap then false
    else begin
      Hashtbl.replace site_count key (n + 1);
      true
    end
  in
  (* The one admission path, for the baseline image ([extras] = None) and
     violation images alike: dedup on (fence, key) over the whole walk,
     then the image budget and the site cap. [Crash_gen] keeps its keys
     for one fence instead, so the parity property compares the two
     forms. The key is [Hashtbl.hash] of the full extras list, the
     identity [Crash_sim.closure_key] reproduces from a closure's first
     10 tids; an exact key has to replace both together. *)
  let admit ~fence_tid ~op ~extras ~viol ~site_key =
    stats.candidates <- stats.candidates + 1;
    let key = match extras with None -> 0 | Some l -> Hashtbl.hash l in
    if not (Hashtbl.mem img_seen (fence_tid, key)) then begin
      Hashtbl.add img_seen (fence_tid, key) ();
      stats.generated <- stats.generated + 1;
      Hashtbl.replace stats.per_op_images op
        (1 + Option.value ~default:0 (Hashtbl.find_opt stats.per_op_images op));
      if stats.tested < cfg.max_images && site_ok site_key then begin
        stats.tested <- stats.tested + 1;
        let extras = Option.value extras ~default:[] in
        List.iter
          (fun tid ->
             stats.bytes_materialized <-
               stats.bytes_materialized + (Hashtbl.find store_evs tid).s_len)
          extras;
        let image =
          { img = M.image m trace ~pool_size ~extras; crash_tid = fence_tid;
            crash_op = op; viol; path_hash = !path_hash;
            extras = Array.of_list extras;
            digest = 0 (* images are compared by content *) }
        in
        match on_image image with
        | `Continue -> ()
        | `Stop -> stop := true
      end
    end
  in
  let emit ~fence_tid ~op ~persist_tid ~avoid_tid ~viol ~site_key =
    if (not !stop) && M.feasible m ~persist:persist_tid ~avoid:avoid_tid then
      admit ~fence_tid ~op ~extras:(Some (M.closure m persist_tid)) ~viol
        ~site_key
  in
  let process_fence fence_tid fence_sid op =
    (match
       List.find_opt
         (function E_cond (_, tid) | E_guardian (_, tid) -> not (M.guaranteed m tid))
         !epoch
     with
     | Some (E_cond (_, first_lost) | E_guardian (_, first_lost)) when not !stop ->
       admit ~fence_tid ~op ~extras:None
         ~viol:
           (Unpersisted_epoch
              { fence_sid; first_lost_sid = sid_of_store first_lost })
         ~site_key:(fence_sid, -1, 2)
     | _ -> ());
    List.iter
      (function
        | E_cond (c, sy_tid) ->
          (match latest_store_to c.req with
           | Some sx_tid when sx_tid <> sy_tid ->
             emit ~fence_tid ~op ~persist_tid:sy_tid ~avoid_tid:sx_tid
               ~viol:
                 (Ordering
                    { rule = c.rule; watch_sid = sid_of_store sy_tid;
                      req_sid = sid_of_store sx_tid; watch_tid = sy_tid;
                      req_tid = sx_tid })
               ~site_key:(sid_of_store sy_tid, sid_of_store sx_tid, 0)
           | _ -> ())
        | E_guardian _ -> ())
      !epoch;
    let guardian_stores =
      List.filter_map
        (function E_guardian (c, tid) -> Some (c, tid) | E_cond _ -> None)
        !epoch
    in
    let pairs = ref 0 in
    let rec all_pairs = function
      | [] -> ()
      | (c1, t1) :: rest ->
        List.iter
          (fun (c2, t2) ->
             if t1 <> t2
             && not (Infer.overlap c1.addr c1.len c2.addr c2.len)
             && !pairs < cfg.max_pa_pairs_per_fence then begin
               incr pairs;
               let atomicity persisted lost =
                 emit ~fence_tid ~op ~persist_tid:persisted ~avoid_tid:lost
                   ~viol:
                     (Atomicity
                        { persisted_sid = sid_of_store persisted;
                          lost_sid = sid_of_store lost;
                          persisted_tid = persisted; lost_tid = lost })
                   ~site_key:(sid_of_store persisted, sid_of_store lost, 1)
               in
               atomicity t1 t2;
               atomicity t2 t1
             end)
          rest;
        all_pairs rest
    in
    all_pairs guardian_stores;
    epoch := [];
    Hashtbl.reset epoch_seen
  in
  for tid = 0 to Trace.length trace - 1 do
    if not !stop then begin
      let ev = Trace.get trace tid in
      (match ev with
       | Trace.Op_begin _ -> path_hash := 0
       | Trace.Load l -> path_hash := path_hash_step !path_hash l.l_sid
       | Trace.Store s -> path_hash := path_hash_step !path_hash s.s_sid
       | _ -> ());
      (match ev with
       | Trace.Store s ->
         Hashtbl.replace store_evs tid s;
         List.iter
           (fun w -> Hashtbl.replace last_store_word w tid)
           (Infer.words s.s_addr s.s_len);
         List.iter
           (fun c ->
              if not (Hashtbl.mem epoch_seen c) then begin
                Hashtbl.add epoch_seen c ();
                epoch := E_cond (c, tid) :: !epoch
              end)
           (conds_for conds s.s_addr s.s_len);
         List.iter
           (fun g -> epoch := E_guardian (g, tid) :: !epoch)
           (guardians_for conds s.s_addr s.s_len)
       | Trace.Fence f -> process_fence tid f.n_sid f.n_op
       | _ -> ());
      M.feed m ev
    end
  done;
  stats
