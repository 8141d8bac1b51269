(* Path signatures: the equivalence-class key for crash-image pruning
   (DESIGN §7). A candidate image is summarized by the operation type of
   the crashed op, the execution-path digest of that op up to the crash
   point, and the violated condition's static site pair — all interned
   [Nvm.Sid] ids and ints, so building, hashing and comparing a signature
   allocates nothing on the hot path.

   The path digest folds a *stable* per-site hash (a function of the
   site's string label, memoized per interned id) rather than the raw sid
   int: sid ints are assigned in interning order, which differs across
   processes, seeds and store subsets, while the label-derived hash is the
   same everywhere. That stability is what lets [stable_key] name a class
   the same way in every process: the event log's `class` and `cluster`
   events and the root-cause order of [Cluster.reports_keyed] are then a
   function of (store, seed, config) alone, whichever campaign worker ran
   the job. It is also why both crash-generation front ends must fold
   their path hashes through [step]. *)

open Nvm

type t = {
  op_kind : Sid.t;  (* operation type of the crashed op, e.g. "insert" *)
  path : int;       (* stable digest of the op's load/store site sequence *)
  watch : Sid.t;    (* persisted-too-early / first-guardian site *)
  req : Sid.t;      (* left-unpersisted / second-guardian site *)
}

(* ---------- stable per-site hash, memoized by interned id ---------- *)

(* FNV-1a over the site label, folded to 24 bits — same width the old
   [sid land 0xffffff] fold used, so path digests keep their magnitude. *)
let label_hash s =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c -> h := ((!h lxor Char.code c) * 0x01000193) land 0x3fffffff)
    s;
  !h land 0xffffff

(* sid -> label hash, grown on demand; -1 = not yet computed *)
let memo = ref (Array.make 1024 (-1))

let site_hash (sid : Sid.t) =
  let cap = Array.length !memo in
  if sid >= cap then begin
    let b = Array.make (max (2 * cap) (sid + 1)) (-1) in
    Array.blit !memo 0 b 0 cap;
    memo := b
  end;
  let h = !memo.(sid) in
  if h >= 0 then h
  else begin
    let h = label_hash (Sid.to_string sid) in
    !memo.(sid) <- h;
    h
  end

(* One step of the execution-path fold: called per load/store event while
   walking an op's trace. Same recurrence as the pre-prune path hash, but
   over the stable site hash. *)
let step h sid = (h * 131) + site_hash sid

let make ~op_kind ~path ~watch ~req = { op_kind; path; watch; req }

let equal (a : t) (b : t) =
  a.path = b.path && Sid.equal a.op_kind b.op_kind
  && Sid.equal a.watch b.watch && Sid.equal a.req b.req

let compare (a : t) (b : t) = Stdlib.compare a b

let hash (s : t) =
  Hashtbl.hash (s.op_kind, s.path land max_int, s.watch, s.req)

(* Cross-process class name: every component rendered through its string
   label (the path digest is already label-derived), so the same logical
   class gets the same key in every worker and at every seed. *)
let stable_key (s : t) =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "witcher-psig-v1|%s|%d|%s|%s"
          (Sid.to_string s.op_kind) s.path (Sid.to_string s.watch)
          (Sid.to_string s.req)))
