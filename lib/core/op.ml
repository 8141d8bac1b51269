(* Key-value operations: the well-known store interface Witcher's template
   driver exercises (§6). Keys are integers, values short strings. *)

type t =
  | Insert of int * string
  | Update of int * string
  | Delete of int
  | Query of int
  | Scan of int * int  (* start key, count *)

let desc t =
  match t with
  | Insert (k, v) -> Printf.sprintf "insert(%d,%s)" k v
  | Update (k, v) -> Printf.sprintf "update(%d,%s)" k v
  | Delete k -> Printf.sprintf "delete(%d)" k
  | Query k -> Printf.sprintf "query(%d)" k
  | Scan (k, n) -> Printf.sprintf "scan(%d,%d)" k n
