(* Interned static-instruction-site identifiers.

   A sid names a static source site ("level_hash:insert.token"); traces
   carry one per event, and the front end (inference, crash-image
   generation, clustering keys, perf-bug site caps) compares and hashes
   sids constantly. Interning turns every sid into a small dense [int]
   backed by one global string table, so the hot paths do integer
   compares and array reads; [to_string] recovers the original label at
   report boundaries, keeping every human/JSON output byte-identical.

   The table is global and append-only: sid ints stay valid for the
   whole process, across traces and engine runs, which is what lets a
   trace store them in unboxed int arrays. Interning is amortized by a
   one-entry memo: OCaml shares each string literal per occurrence, so
   the common pattern — a site's instrumentation running in a loop —
   hits the physical-equality check without touching the hash table. *)

type t = int

let table : (string, int) Hashtbl.t = Hashtbl.create 512
let names : string Vec.t = Vec.create ~dummy:"" ()

(* id 0 is always the empty sid, so the memo's initial state is valid *)
let () =
  Vec.push names "";
  Hashtbl.add table "" 0

(* last interned (string, id); physical equality on the string *)
let memo_s = ref ""
let memo_i = ref 0

let intern_slow s =
  match Hashtbl.find_opt table s with
  | Some i -> i
  | None ->
    let i = Vec.length names in
    Vec.push names s;
    Hashtbl.add table s i;
    i

let intern s =
  if s == !memo_s then !memo_i
  else begin
    let i = intern_slow s in
    memo_s := s;
    memo_i := i;
    i
  end

let to_string i = Vec.get names i

let count () = Vec.length names

let equal (a : t) (b : t) = a = b

let pp ppf i = Fmt.string ppf (to_string i)
