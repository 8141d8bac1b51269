(* Taint sets identify the NVM loads a value derives from. Each element is
   the trace id (tid) of a Load event. Taint flows through Tv arithmetic
   and through control-dependency scopes in Ctx; a Store event records the
   taint of the stored value (data dependency) and of the enclosing branch
   guards (control dependency). These edges are exactly the Persistence
   Program Dependence Graph of Witcher §4.2.2.

   Representation: one sorted array of distinct tids. Nearly every taint
   in a real trace carries 0-2 elements (a load feeding a store, a guard
   pair), and an op's pointer guards hold each address once (see
   [Ctx.read_ptr]): there is no per-node allocation, a union is a single
   merge pass and membership is a binary search. A set has exactly one
   encoding, so structural equality ([=]) on taints is set equality; the
   trace and front-end parity tests compare taints with it. The empty set
   is one shared value, and [union] returns an argument physically
   whenever the result equals it, so a set that gains nothing stays
   shared. Finding that out still merges into a scratch array unless an
   argument is empty or both are the same value, which is why [Ctx]
   restores a saved guard set on scope exit instead of re-unioning. *)

type t = int array (* sorted, distinct *)

let empty : t = [||]

let is_empty (t : t) = Array.length t = 0

let singleton x : t = [| x |]

let cardinal (t : t) = Array.length t

let mem x (t : t) =
  let lo = ref 0 and hi = ref (Array.length t) in
  let found = ref false in
  while (not !found) && !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let v = Array.unsafe_get t mid in
    if v = x then found := true else if v < x then lo := mid + 1 else hi := mid
  done;
  !found

(* Merge two sorted distinct arrays; an argument that already holds the
   other is returned physically. *)
let union (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if a == b || lb = 0 then a
  else if la = 0 then b
  else begin
    let out = Array.make (la + lb) 0 in
    let i = ref 0 and j = ref 0 and k = ref 0 in
    while !i < la && !j < lb do
      let x = Array.unsafe_get a !i and y = Array.unsafe_get b !j in
      if x < y then (Array.unsafe_set out !k x; incr i)
      else if y < x then (Array.unsafe_set out !k y; incr j)
      else (Array.unsafe_set out !k x; incr i; incr j);
      incr k
    done;
    while !i < la do
      Array.unsafe_set out !k (Array.unsafe_get a !i); incr i; incr k
    done;
    while !j < lb do
      Array.unsafe_set out !k (Array.unsafe_get b !j); incr j; incr k
    done;
    if !k = la then a
    else if !k = lb then b
    else if !k = la + lb then out
    else Array.sub out 0 !k
  end

let iter f (t : t) = Array.iter f t

let fold f (t : t) init =
  let acc = ref init in
  iter (fun x -> acc := f x !acc) t;
  !acc

let elements (t : t) = Array.to_list t
