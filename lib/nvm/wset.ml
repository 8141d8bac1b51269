(* Word-granular read sets for fence-batched validation.

   A [Wset.t] records which 8-byte pool words a replay has read. The
   batched checker uses it to decide verdict inheritance: two crash
   images of the same fence differ only on the words written by stores
   in the symmetric difference of their extras sets, so if none of
   those words intersect a finished replay's read set, the new image's
   replay is bit-identical and its verdict can be reused.

   Representation: a growable bitmap, one bit per pool word, 32 bits
   per array slot. Stores (and therefore most reads) touch a small
   dense prefix of the pool, so the backing array stays short; it only
   grows when a replay actually dereferences a high address. [clear]
   zeroes just the used prefix, which makes recycling a set across
   fence groups cheap. *)

type t = { mutable bits : int array; mutable hi : int }
(* [hi] is one past the highest slot ever set; slots >= hi are 0. *)

let create () = { bits = Array.make 64 0; hi = 0 }

let clear t =
  if t.hi > 0 then Array.fill t.bits 0 t.hi 0;
  t.hi <- 0

let[@inline] slot_of_word w = w lsr 5
let[@inline] bit_of_word w = 1 lsl (w land 31)

let grow t slot =
  let n = ref (Array.length t.bits) in
  while slot >= !n do
    n := !n * 2
  done;
  let bits = Array.make !n 0 in
  Array.blit t.bits 0 bits 0 t.hi;
  t.bits <- bits

(* Mark every pool word overlapping the byte range [addr, addr+len). *)
let add_range t addr len =
  if len > 0 then begin
    let w0 = addr asr 3 and w1 = (addr + len - 1) asr 3 in
    for w = w0 to w1 do
      let s = slot_of_word w in
      if s >= Array.length t.bits then grow t s;
      t.bits.(s) <- t.bits.(s) lor bit_of_word w;
      if s >= t.hi then t.hi <- s + 1
    done
  end

(* Does the byte range [addr, addr+len) touch any recorded word? *)
let mem_range t addr len =
  len > 0
  &&
  let w0 = addr asr 3 and w1 = (addr + len - 1) asr 3 in
  let rec probe w =
    if w > w1 then false
    else
      let s = slot_of_word w in
      if s < t.hi && t.bits.(s) land bit_of_word w <> 0 then true
      else probe (w + 1)
  in
  probe w0
