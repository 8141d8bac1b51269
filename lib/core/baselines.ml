(* Simplified re-creations of the prior tools Witcher is compared against
   in §7.6. Both operate on the same trace; what distinguishes them from
   Witcher (and drives the comparison's outcome) is the *oracle*:

   - [agamotto]: universal bug oracles only — data left unpersisted that a
     later operation reads (missing flush/fence), plus the PMDK
     transaction checker (store inside an open transaction to an unlogged
     range). It has no application-specific oracle, so persistence
     ordering/atomicity violations that need semantic validation are
     invisible to it.

   - [pmtest]: annotation-driven ordering assertions. An annotation
     declares "the latest store at site A must be durable whenever site B
     executes"; unannotated sites are unchecked, which is exactly the
     failure mode the paper describes (a missing annotation is a false
     negative). Annotations may also be wrong: an assertion can fire on a
     benign state (the Redis root-zeroing false positive of §7.6), which
     output equivalence would have pruned. *)

open Nvm

type agamotto_result = {
  missing_persist_sites : (string * int) list;  (* sid, occurrences *)
  missing_log_sites : (string * int) list;
  redundant_flush_sites : (string * int) list;
  redundant_fence_sites : (string * int) list;
}

let agamotto (trace : Trace.t) =
  let perf = Perf.detect trace in
  (* Unflushed stores whose cell is read by a *later operation*: universal
     missing-persist oracle. *)
  let flushed_lines_after : (int, int) Hashtbl.t = Hashtbl.create 1024 in
  (* line -> tid of last flush *)
  Trace.iter
    (fun ev ->
       match ev with
       | Trace.Flush f -> Hashtbl.replace flushed_lines_after f.f_line f.f_tid
       | _ -> ())
    trace;
  let store_flushed (s : Trace.store_ev) =
    match Hashtbl.find_opt flushed_lines_after (Pmem.line_of_addr s.s_addr) with
    | Some flush_tid -> flush_tid > s.s_tid
    | None -> false
  in
  let unflushed_words : (int, Trace.store_ev) Hashtbl.t = Hashtbl.create 256 in
  Trace.iter
    (fun ev ->
       match ev with
       | Trace.Store s when not (store_flushed s) ->
         List.iter
           (fun w -> Hashtbl.replace unflushed_words w s)
           (Infer.words s.s_addr s.s_len)
       | _ -> ())
    trace;
  let missing : (Sid.t, int) Hashtbl.t = Hashtbl.create 16 in
  Trace.iter
    (fun ev ->
       match ev with
       | Trace.Load l ->
         List.iter
           (fun w ->
              match Hashtbl.find_opt unflushed_words w with
              | Some s when l.l_op > s.s_op && l.l_tid > s.s_tid ->
                Hashtbl.replace missing s.s_sid
                  (1 + Option.value ~default:0 (Hashtbl.find_opt missing s.s_sid))
              | _ -> ())
           (Infer.words l.l_addr l.l_len)
       | _ -> ())
    trace;
  (* Transaction checker: stores inside an open tx to unlogged ranges. *)
  let missing_log : (Sid.t, int) Hashtbl.t = Hashtbl.create 16 in
  let open_tx = ref None in
  let logged : (int * int) list ref = ref [] in
  Trace.iter
    (fun ev ->
       match ev with
       | Trace.Tx_begin x -> open_tx := Some x.t_tx; logged := []
       | Trace.Tx_commit _ | Trace.Tx_abort _ -> open_tx := None
       | Trace.Log_range g when !open_tx <> None ->
         logged := (g.g_addr, g.g_len) :: !logged
       | Trace.Store s when !open_tx <> None ->
         (* PMDK-internal bookkeeping (header + log arena) is exempt. *)
         if s.s_addr >= Pmdk.Layout.heap_start
         && not
              (List.exists
                 (fun (a, len) -> s.s_addr >= a && s.s_addr + s.s_len <= a + len)
                 !logged)
         then
           Hashtbl.replace missing_log s.s_sid
             (1 + Option.value ~default:0 (Hashtbl.find_opt missing_log s.s_sid))
       | _ -> ())
    trace;
  let to_list h =
    Hashtbl.fold (fun k v acc -> (Sid.to_string k, v) :: acc) h []
    |> List.sort compare
  in
  { missing_persist_sites = to_list missing;
    missing_log_sites = to_list missing_log;
    redundant_flush_sites = Perf.bug_sites perf.p_efl;
    redundant_fence_sites = Perf.bug_sites perf.p_efe }

(* Two annotation forms, mirroring PMTest's assertions: an ordering
   assertion ("the latest store at [before] must be durable when a store
   at [after] executes") and a transaction assertion ("stores at [sid]
   must happen inside an open transaction" — the TX checker that flags
   Redis's benign root zeroing, §7.6). *)
type annotation =
  | Ordered of { before : string; after : string }
  | In_tx of { sid : string }

type pmtest_violation = {
  ann : annotation;
  at_tid : int;
  occurrences : int;
}

let pmtest (trace : Trace.t) ~pool_size ~(annotations : annotation list) =
  let sim = Crash_sim.create ~trace ~pool_size in
  let last_by_sid : (Sid.t, int) Hashtbl.t = Hashtbl.create 64 in
  let hits : (annotation, int * int) Hashtbl.t = Hashtbl.create 16 in
  let in_tx = ref false in
  let record ann tid =
    let tid0, n = Option.value ~default:(tid, 0) (Hashtbl.find_opt hits ann) in
    Hashtbl.replace hits ann (tid0, n + 1)
  in
  for i = 0 to Trace.length trace - 1 do
    (match Trace.get trace i with
     | Trace.Tx_begin _ -> in_tx := true
     | Trace.Tx_commit _ | Trace.Tx_abort _ -> in_tx := false
     | Trace.Store s ->
       List.iter
         (fun ann ->
            match ann with
            | Ordered { before; after } ->
              if Sid.intern after = s.s_sid then (
                match Hashtbl.find_opt last_by_sid (Sid.intern before) with
                | Some before_tid
                  when not (Crash_sim.is_guaranteed sim before_tid) ->
                  record ann s.s_tid
                | _ -> ())
            | In_tx { sid } ->
              if Sid.intern sid = s.s_sid && not !in_tx then
                record ann s.s_tid)
         annotations;
       Hashtbl.replace last_by_sid s.s_sid s.s_tid
     | _ -> ());
    Crash_sim.on_index sim i
  done;
  Hashtbl.fold
    (fun ann (tid, n) acc -> { ann; at_tid = tid; occurrences = n } :: acc)
    hits []
  |> List.sort (fun a b -> compare a.ann b.ann)
