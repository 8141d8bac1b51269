(* The stores' fixed-width value codec: a value is written NUL-padded to
   its slot's width and read back without the padding. *)

let pad len v =
  if String.length v >= len then String.sub v 0 len
  else v ^ String.make (len - String.length v) '\000'

let strip v =
  let rec len i = if i > 0 && v.[i - 1] = '\000' then len (i - 1) else i in
  String.sub v 0 (len (String.length v))
