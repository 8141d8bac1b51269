(* Tainted values: an integer (or byte blob) carrying the set of NVM loads
   it was computed from. All arithmetic unions taints, so data dependencies
   survive arbitrary OCaml computation between a load and a store — this is
   the dynamic analogue of the paper's memory-level data-flow analysis. *)

type t = {
  v : int;
  taint : Taint.t;
}

type blob = {
  data : string;
  btaint : Taint.t;
}

let make ?(taint = Taint.empty) v = { v; taint }
let const v = { v; taint = Taint.empty }
let zero = const 0
let one = const 1

let value t = t.v
let taint t = t.taint
let to_bool t = t.v <> 0
let retaint t taint = { t with taint = Taint.union t.taint taint }

let lift2 op a b = { v = op a.v b.v; taint = Taint.union a.taint b.taint }

let add = lift2 ( + )

(* Comparisons yield tainted booleans (0/1) so they can guard Ctx.if_. *)
let bool_ taint b = { v = (if b then 1 else 0); taint }

let eq a b = bool_ (Taint.union a.taint b.taint) (a.v = b.v)
let ne a b = bool_ (Taint.union a.taint b.taint) (a.v <> b.v)
let lt a b = bool_ (Taint.union a.taint b.taint) (a.v < b.v)

(* Blobs: strings with a single taint for the whole buffer. Key/value
   payloads in the stores are blobs; per-byte taint would buy nothing for
   the inference rules, which work at the granularity of accesses. *)

let blob ?(taint = Taint.empty) data = { data; btaint = taint }
let blob_value b = b.data
let blob_taint b = b.btaint
