(* A minimal growable array. OCaml 5.1 predates Stdlib.Dynarray, and the
   trace recorder needs amortized O(1) append over hundreds of thousands of
   events, so we carry our own. *)

type 'a t = {
  mutable data : 'a array;
  mutable len : int;
  dummy : 'a;
}

let create ~dummy () = { data = Array.make 16 dummy; len = 0; dummy }

let length t = t.len

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Vec.get";
  t.data.(i)

let set t i v =
  if i < 0 || i >= t.len then invalid_arg "Vec.set";
  t.data.(i) <- v

let push t v =
  if t.len = Array.length t.data then begin
    let data = Array.make (2 * t.len) t.dummy in
    Array.blit t.data 0 data 0 t.len;
    t.data <- data
  end;
  t.data.(t.len) <- v;
  t.len <- t.len + 1

(* Drop the first [k] elements, shifting the rest down in place and
   clearing the tail (so dropped boxed values can be collected). Backs
   Crash_sim's per-line sequence compaction. *)
let drop_front t k =
  if k < 0 || k > t.len then invalid_arg "Vec.drop_front";
  if k > 0 then begin
    Array.blit t.data k t.data 0 (t.len - k);
    Array.fill t.data (t.len - k) k t.dummy;
    t.len <- t.len - k
  end

let fold_left f init t =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc
