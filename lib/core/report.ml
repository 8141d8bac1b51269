(* Human-readable reproduction of the paper's tables and figures. All
   output is plain text so `dune exec bench/main.exe` regenerates the
   rows/series the paper reports. *)

let line width = String.make width '-'

(* Table 1: comparison with existing crash-consistency testing tools. *)
let table1 () =
  String.concat "\n"
    [ "Table 1. Comparison with existing crash consistency testing tools";
      line 100;
      Printf.sprintf "%-22s | %-24s | %-32s | %s" "Tool" "Input space"
        "NVM state exploration" "Validation oracle";
      line 100;
      Printf.sprintf "%-22s | %-24s | %-32s | %s" "Yat / PMReorder"
        "user test case" "exhaustive" "user-provided oracle";
      Printf.sprintf "%-22s | %-24s | %-32s | %s" "Jaaru" "user test case"
        "model checking w/ pruning" "visible manifestation";
      Printf.sprintf "%-22s | %-24s | %-32s | %s" "PMTest / XFDetector"
        "user test case" "manual annotation" "user-provided oracle";
      Printf.sprintf "%-22s | %-24s | %-32s | %s" "Agamotto"
        "symbolic execution" "PM-aware search" "user-provided oracle";
      Printf.sprintf "%-22s | %-24s | %-32s | %s" "PMDebugger" "user test case"
        "user-provided oracle" "user-provided oracle";
      Printf.sprintf "%-22s | %-24s | %-32s | %s" "WITCHER (this work)"
        "user test case" "likely-correctness conditions" "output equivalence";
      line 100 ]

(* Table 2: the inference rules. *)
let table2 () =
  String.concat "\n"
    [ "Table 2. Likely-correctness condition inference rules";
      line 88;
      Printf.sprintf "%-4s | %-22s | %-26s | %s" "#" "Hint (dependency)"
        "Likely-correctness condition" "Violating NVM image";
      line 88;
      Printf.sprintf "%-4s | %-22s | %-26s | %s" "PO1" "W(Y) -dd-> R(X)"
        "P(X) -hb-> W(Y)" "Y persisted, X unpersisted";
      Printf.sprintf "%-4s | %-22s | %-26s | %s" "PO2" "W(Y) -cd-> R(X)"
        "P(X) -hb-> W(Y)" "Y persisted, X unpersisted";
      Printf.sprintf "%-4s | %-22s | %-26s | %s" "PO3" "R(Y) -cd-> R(X)"
        "P(Y) -hb-> W(X)" "X persisted, Y unpersisted";
      Printf.sprintf "%-4s | %-22s | %-26s | %s" "PA1" "guardians X, Y (PO3)"
        "AP(X, Y)" "exactly one of X, Y persisted";
      line 88 ]

let result_header () =
  Printf.sprintf "%-18s | %4s %4s | %4s %5s %5s %4s | %9s %9s | %8s %8s %8s | %8s | %7s"
    "Program" "C-O" "C-A" "P-U" "P-EFL" "P-EFE" "P-EL" "#ord-cond" "#atm-cond"
    "#img-gen" "#img-tst" "#mismtch" "#cluster" "time(s)"

let result_row (r : Engine.result) =
  let total_time = r.t_record +. r.t_infer +. r.t_gen +. r.t_equiv in
  Printf.sprintf "%-18s | %4d %4d | %4d %5d %5d %4d | %9d %9d | %8d %8d %8d | %8d | %7.1f"
    r.name r.c_o r.c_a
    (Perf.n_bugs r.perf.p_u) (Perf.n_bugs r.perf.p_efl)
    (Perf.n_bugs r.perf.p_efe) (Perf.n_bugs r.perf.p_el)
    r.n_ord_conds r.n_atom_conds
    r.images_generated r.images_tested r.n_mismatch r.n_clusters total_time

(* Bytes in megabytes of 10^6 bytes, the unit of every "MB" the reports,
   the docs and the standing benchmark print. *)
let mb bytes = float_of_int bytes /. 1e6

(* Per-stage timing and replay-work line for one store (`witcher run -v`):
   where the pipeline wall-clock goes, and how much replay/copy work the
   zero-copy validation path actually did. *)
let timing_line (r : Engine.result) =
  Printf.sprintf
    "%-18s record %.3fs | infer %.3fs | gen %.3fs | equiv %.3fs | \
     replay-ops %d (early-stops %d) | materialized %.2f MB over %d images | \
     oracle-runs %d (ops saved %d) | memo-hits %d | ckpt %.2f MB"
    r.name r.t_record r.t_infer r.t_gen r.t_equiv r.replay_ops
    r.replay_early_stops
    (mb r.bytes_materialized) r.images_tested
    r.oracle_runs r.oracle_ops_saved r.memo_hits
    (mb r.ckpt_bytes)

(* Pruning summary for a non-exhaustive run (`witcher run --prune ...`):
   how many classes the eligible images collapsed into, how much
   validation was elided, and how often divergence forced expansion. *)
let prune_line (r : Engine.result) =
  let total = r.images_tested + r.images_elided in
  let pct =
    if total = 0 then 0.
    else 100. *. float_of_int r.images_elided /. float_of_int total
  in
  Printf.sprintf
    "%-18s prune=%s | classes %d | reps %d | expanded %d class(es) | \
     validated %d | elided %d images (%.1f%%)"
    r.name
    (Prune.Policy.name r.prune_policy)
    r.prune_classes r.prune_reps r.prune_expansions r.images_tested
    r.images_elided pct

(* Fence-batched checking summary (`witcher run -v`, DESIGN §5): how many
   fence groups formed, how dense they were, and how much replay work
   verdict inheritance skipped. *)
let batch_line (r : Engine.result) =
  let per_fence =
    if r.batch_fences = 0 then 0.
    else float_of_int r.batch_images /. float_of_int r.batch_fences
  in
  Printf.sprintf
    "%-18s batch=on | fences %d | images %d (%.1f/fence) | inherit-hits %d | \
     replay-ops saved %d"
    r.name r.batch_fences r.batch_images per_fence r.inherit_hits
    r.inherit_ops_saved

(* Streaming-pipeline summary (`witcher run --stream`, DESIGN §9): how
   far the trace window slid, how the checkpoint ring churned, and the
   observed live-heap high-water mark. *)
let stream_line (r : Engine.result) =
  Printf.sprintf
    "%-18s stream=on | window retirements %d | ckpt-ring evictions %d | \
     peak live heap %.1f MB"
    r.name r.window_retirements r.ckpt_ring_evictions
    (mb (r.peak_live_words * 8))

(* Table 4-style performance-bug sites of one store, one line each (the
   correctness root causes are listed from [r.bug_reports]). *)
let perf_list (r : Engine.result) =
  String.concat ""
    (List.concat_map
       (fun (kind, counts) ->
          List.map
            (fun (sid, n) -> Printf.sprintf "  perf %-5s %-48s x%d\n" kind sid n)
            (Perf.bug_sites counts))
       [ "P-U", r.perf.p_u;
         "P-EFL", r.perf.p_efl;
         "P-EFE", r.perf.p_efe;
         "P-EL", r.perf.p_el ])

(* Figure 4: ASCII series of cumulative test-space sizes per operation. *)
let figure4 ~name (s : Yat.series) ~step =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "Figure 4 (%s): cumulative crash states vs op index\n" name);
  Buffer.add_string buf
    (Printf.sprintf "%6s | %18s | %14s\n" "op" "Yat (log10 states)" "Witcher images");
  let n = Array.length s.yat_log10 in
  (* print every [step]-th op plus the last one *)
  let rec go i =
    if i < n - 1 then begin
      Buffer.add_string buf
        (Printf.sprintf "%6d | %18.1f | %14d\n" i s.yat_log10.(i) s.witcher.(i));
      go (i + step)
    end
  in
  go 0;
  if n > 0 then
    Buffer.add_string buf
      (Printf.sprintf "%6d | %18.1f | %14d\n" (n - 1)
         s.yat_log10.(n - 1) s.witcher.(n - 1));
  Buffer.contents buf
