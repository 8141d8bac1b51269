(* Random test-case generation (§7.1). Witcher needs a deterministic test
   case with good coverage; the paper assigns a higher probability to
   fresh keys for insert and to already-used keys for delete / update /
   query / scan, so dependent operations are meaningful and rebalancing
   (rehash, split/merge) is actually triggered. Generation is fully
   determined by [seed]. *)

type cfg = {
  n_ops : int;
  key_space : int;          (* keys drawn from [1, key_space] *)
  value_len : int;
  seed : int;
  p_insert : float;
  p_update : float;
  p_delete : float;
  p_query : float;
  p_scan : float;           (* set 0. for stores without range scans *)
}

let default =
  { n_ops = 200; key_space = 10_000; value_len = 8; seed = 42;
    p_insert = 0.5; p_update = 0.1; p_delete = 0.1; p_query = 0.25;
    p_scan = 0.05 }

let no_scan cfg =
  { cfg with p_query = cfg.p_query +. cfg.p_scan; p_scan = 0. }

(* A [value_len]-byte value for key [k]; [Traffic] draws its values here
   too. *)
let value_of value_len rng k =
  let tag = Random.State.int rng 0x10000 in
  let s = Printf.sprintf "v%dk%x" k tag in
  if String.length s >= value_len then String.sub s 0 value_len
  else s ^ String.make (value_len - String.length s) '_'

let generate cfg =
  let rng = Random.State.make [| cfg.seed |] in
  let live = Hashtbl.create 64 in
  let live_list = ref [] in  (* keys ever inserted, for biased picking *)
  let fresh_key () =
    let rec go tries =
      let k = 1 + Random.State.int rng cfg.key_space in
      if Hashtbl.mem live k && tries < 20 then go (tries + 1) else k
    in
    go 0
  in
  let used_key () =
    match !live_list with
    | [] -> 1 + Random.State.int rng cfg.key_space
    | l -> List.nth l (Random.State.int rng (List.length l))
  in
  let pick () =
    let r = Random.State.float rng 1.0 in
    if r < cfg.p_insert then begin
      let k = fresh_key () in
      if not (Hashtbl.mem live k) then begin
        Hashtbl.replace live k ();
        live_list := k :: !live_list
      end;
      Op.Insert (k, value_of cfg.value_len rng k)
    end
    else if r < cfg.p_insert +. cfg.p_update then
      Op.Update (used_key (), value_of cfg.value_len rng 0)
    else if r < cfg.p_insert +. cfg.p_update +. cfg.p_delete then begin
      let k = used_key () in
      Hashtbl.remove live k;
      Op.Delete k
    end
    else if r < cfg.p_insert +. cfg.p_update +. cfg.p_delete +. cfg.p_query then
      Op.Query (used_key ())
    else
      Op.Scan (used_key (), 1 + Random.State.int rng 8)
  in
  List.init cfg.n_ops (fun _ -> pick ())
