(* Taint sets identify the NVM loads a value derives from. Each element is
   the trace id (tid) of a Load event. Taint flows through Tv arithmetic
   and through control-dependency scopes in Ctx; a Store event records the
   taint of the stored value (data dependency) and of the enclosing branch
   guards (control dependency). These edges are exactly the Persistence
   Program Dependence Graph of Witcher §4.2.2.

   Representation: hybrid. Nearly every taint in a real trace carries 0-2
   elements (a load feeding a store, a guard pair), so the common case is
   a flat sorted array of distinct tids — no per-node allocation, unions
   are a single merge pass, membership is a binary search. Deep guard
   nests and long dependence chains, however, accumulate sets whose
   elements are dense in tid-space (consecutive loads of one op); those
   switch to a word bitmap where union runs one OR per 32 tids.

   The representation is canonical — a pure function of the set: bitmaps
   are used exactly when the set has more than [small_max] elements and
   spans at most one bitmap word per element (so a bitmap is never larger
   than the array it replaces). Bitmap bases are 32-aligned and the word
   array is trimmed (first and last words non-zero), which makes the
   encoding of a given set unique, so structural equality ([=]) on taints
   is set equality; the trace and front-end parity tests compare taints
   with it. The empty set is one shared value, and unions return an
   argument physically whenever the result equals it, so the common
   guard-stack pattern (re-unioning an unchanged scope) allocates
   nothing. *)

type bits = { base : int; words : int array; card : int }
(* base multiple of 32; bit b of words.(i) = member base + 32i + b;
   words trimmed at both ends; card > small_max; length words <= card *)

type t =
  | Small of int array (* sorted, distinct *)
  | Bits of bits

let small_max = 8

let empty : t = Small [||]

let is_empty = function Small a -> Array.length a = 0 | Bits _ -> false

let singleton x : t = Small [| x |]

let cardinal = function Small a -> Array.length a | Bits b -> b.card

let[@inline] pc32 x =
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F in
  (x * 0x01010101) lsr 24

(* Canonical constructor from a sorted distinct array. *)
let of_sorted (arr : int array) : t =
  let n = Array.length arr in
  if n = 0 then empty
  else if n <= small_max then Small arr
  else begin
    let lo = arr.(0) lsr 5 and hi = arr.(n - 1) lsr 5 in
    if hi - lo + 1 > n then Small arr
    else begin
      let words = Array.make (hi - lo + 1) 0 in
      Array.iter
        (fun x ->
           let w = (x lsr 5) - lo in
           words.(w) <- words.(w) lor (1 lsl (x land 31)))
        arr;
      Bits { base = lo lsl 5; words; card = n }
    end
  end

let bits_elements base (words : int array) card =
  let out = Array.make card 0 and k = ref 0 in
  for i = 0 to Array.length words - 1 do
    let w = Array.unsafe_get words i in
    if w <> 0 then
      for b = 0 to 31 do
        if w land (1 lsl b) <> 0 then begin
          Array.unsafe_set out !k (base + (i lsl 5) + b);
          incr k
        end
      done
  done;
  out

let mem x (t : t) =
  match t with
  | Small a ->
    let lo = ref 0 and hi = ref (Array.length a) in
    let found = ref false in
    while (not !found) && !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      let v = Array.unsafe_get a mid in
      if v = x then found := true else if v < x then lo := mid + 1 else hi := mid
    done;
    !found
  | Bits b ->
    x >= b.base
    &&
    let w = (x - b.base) lsr 5 in
    w < Array.length b.words && b.words.(w) land (1 lsl (x land 31)) <> 0

(* Merge two sorted distinct arrays; physical subset reuse on [a]/[b]. *)
let union_arrays (a : int array) (b : int array) : int array =
  let la = Array.length a and lb = Array.length b in
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

(* sub, shifted [off] words into sup, is bitwise contained in sup. *)
let subset_words (sub : int array) off (sup : int array) =
  let ok = ref true in
  for i = 0 to Array.length sub - 1 do
    let s = Array.unsafe_get sub i in
    if Array.unsafe_get sup (off + i) land s <> s then ok := false
  done;
  !ok

(* Union of a Small payload into a Bits set; [tb] is the Bits value for
   physical reuse when s ⊆ b. *)
let union_small_bits (s : int array) b tb : t =
  let ls = Array.length s in
  if ls = 0 then tb
  else begin
    let missing = ref 0 in
    Array.iter
      (fun x ->
         let inb =
           x >= b.base
           &&
           let w = (x - b.base) lsr 5 in
           w < Array.length b.words && b.words.(w) land (1 lsl (x land 31)) <> 0
         in
         if not inb then incr missing)
      s;
    if !missing = 0 then tb
    else begin
      let b_lo = b.base lsr 5 in
      let b_hi = b_lo + Array.length b.words - 1 in
      let lo = min (s.(0) lsr 5) b_lo and hi = max (s.(ls - 1) lsr 5) b_hi in
      let card = b.card + !missing in
      if hi - lo + 1 <= card then begin
        let words = Array.make (hi - lo + 1) 0 in
        Array.blit b.words 0 words (b_lo - lo) (Array.length b.words);
        Array.iter
          (fun x ->
             let w = (x lsr 5) - lo in
             words.(w) <- words.(w) lor (1 lsl (x land 31)))
          s;
        Bits { base = lo lsl 5; words; card }
      end
      else
        of_sorted (union_arrays s (bits_elements b.base b.words b.card))
    end
  end

let union (ta : t) (tb : t) : t =
  if ta == tb then ta
  else
    match ta, tb with
    | Small a, Small b ->
      let la = Array.length a and lb = Array.length b in
      if la = 0 then tb
      else if lb = 0 then ta
      else
        let r = union_arrays a b in
        if r == a then ta else if r == b then tb else of_sorted r
    | Small s, Bits b -> union_small_bits s b tb
    | Bits b, Small s -> union_small_bits s b ta
    | Bits a, Bits b ->
      let a_lo = a.base lsr 5 and b_lo = b.base lsr 5 in
      let a_n = Array.length a.words and b_n = Array.length b.words in
      let a_hi = a_lo + a_n - 1 and b_hi = b_lo + b_n - 1 in
      if b_lo >= a_lo && b_hi <= a_hi && subset_words b.words (b_lo - a_lo) a.words
      then ta
      else if a_lo >= b_lo && a_hi <= b_hi
              && subset_words a.words (a_lo - b_lo) b.words
      then tb
      else begin
        let lo = min a_lo b_lo and hi = max a_hi b_hi in
        let words = Array.make (hi - lo + 1) 0 in
        Array.blit a.words 0 words (a_lo - lo) a_n;
        let card = ref a.card in
        for i = 0 to b_n - 1 do
          let k = b_lo - lo + i in
          let before = Array.unsafe_get words k in
          let w = before lor Array.unsafe_get b.words i in
          Array.unsafe_set words k w;
          card := !card + pc32 w - pc32 before
        done;
        if hi - lo + 1 <= !card then Bits { base = lo lsl 5; words; card = !card }
        else of_sorted (bits_elements (lo lsl 5) words !card)
      end

let iter f (t : t) =
  match t with
  | Small a ->
    for i = 0 to Array.length a - 1 do
      f (Array.unsafe_get a i)
    done
  | Bits b ->
    for i = 0 to Array.length b.words - 1 do
      let w = Array.unsafe_get b.words i in
      if w <> 0 then
        for bit = 0 to 31 do
          if w land (1 lsl bit) <> 0 then f (b.base + (i lsl 5) + bit)
        done
    done

let fold f (t : t) init =
  let acc = ref init in
  iter (fun x -> acc := f x !acc) t;
  !acc

let elements (t : t) =
  match t with
  | Small a -> Array.to_list a
  | Bits b -> Array.to_list (bits_elements b.base b.words b.card)

let union_list = List.fold_left union empty

let pp ppf t =
  Fmt.pf ppf "{%a}" Fmt.(list ~sep:(any ",") int) (elements t)
