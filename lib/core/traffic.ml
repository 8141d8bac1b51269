(* YCSB-style traffic generation for large-scale runs. [Workload] is the
   paper's coverage-biased test-case generator and stays the default for
   bug hunting at a few hundred ops; this module produces the *load* a
   deployed KV store sees — zipfian hot keys, a fixed get/put/delete/scan
   mix, optional bursts — at sizes where [Workload]'s O(n) key-list scans
   would be quadratic. Everything is O(1) per op after an O(key_space)
   zeta precomputation, so a million-op stream generates in milliseconds.

   The key space is bounded and preloaded: the first [preload] ops insert
   keys 1..preload, so the steady-state phase runs against a populated
   store and the live set never outgrows the fixed pool sizes the
   registry stores declare. Inserts recycle deleted keys before minting
   fresh ones for the same reason. Generation is fully determined by
   [seed]. *)

type cfg = {
  name : string;            (* preset label, for reports *)
  n_ops : int;              (* total ops, including the preload prefix *)
  key_space : int;          (* distinct keys, 1..key_space *)
  preload : int;            (* keys inserted up front *)
  value_len : int;
  seed : int;
  p_insert : float;
  p_update : float;
  p_delete : float;
  p_query : float;
  p_scan : float;
  zipf_theta : float;       (* 0. = uniform; YCSB default 0.99 *)
  scan_len : int;           (* max keys per scan *)
  burst_every : int;        (* ~1 burst per this many ops; 0 = no bursts *)
  burst_len : int;          (* ops pinned to one hot key per burst *)
}

let base =
  { name = "mixed"; n_ops = 1000; key_space = 512; preload = 256;
    value_len = 8; seed = 42; p_insert = 0.10; p_update = 0.30;
    p_delete = 0.10; p_query = 0.45; p_scan = 0.05; zipf_theta = 0.99;
    scan_len = 8; burst_every = 64; burst_len = 8 }

(* The standard YCSB core workloads (A..F), plus the [base] mixed blend
   that also exercises deletes. D's "latest" distribution and F's
   read-modify-write degenerate to zipfian reads + inserts / updates
   under a KV interface with atomic ops. *)
let presets =
  [ ("ycsb-a", { base with name = "ycsb-a"; p_insert = 0.; p_update = 0.5;
                 p_delete = 0.; p_query = 0.5; p_scan = 0. });
    ("ycsb-b", { base with name = "ycsb-b"; p_insert = 0.; p_update = 0.05;
                 p_delete = 0.; p_query = 0.95; p_scan = 0. });
    ("ycsb-c", { base with name = "ycsb-c"; p_insert = 0.; p_update = 0.;
                 p_delete = 0.; p_query = 1.0; p_scan = 0. });
    ("ycsb-d", { base with name = "ycsb-d"; p_insert = 0.05; p_update = 0.;
                 p_delete = 0.; p_query = 0.95; p_scan = 0. });
    ("ycsb-e", { base with name = "ycsb-e"; p_insert = 0.05; p_update = 0.;
                 p_delete = 0.; p_query = 0.; p_scan = 0.95 });
    ("ycsb-f", { base with name = "ycsb-f"; p_insert = 0.; p_update = 0.5;
                 p_delete = 0.; p_query = 0.5; p_scan = 0. });
    ("mixed", base) ]

let names = List.map fst presets

let of_name name = List.assoc_opt name presets

let no_scan cfg =
  { cfg with p_query = cfg.p_query +. cfg.p_scan; p_scan = 0. }

(* Bounded zipfian sampler over [1, n] (Gray et al., the YCSB generator):
   O(n) zeta precomputation, O(1) per sample. Rank 1 is the hottest key.
   theta <= 0 degenerates to uniform. *)
type zipf = {
  z_n : int;
  z_theta : float;
  z_zetan : float;
  z_eta : float;
  z_alpha : float;
}

let zipf_create n theta =
  if theta <= 0. then
    { z_n = n; z_theta = 0.; z_zetan = 0.; z_eta = 0.; z_alpha = 0. }
  else begin
    let zeta m =
      let s = ref 0. in
      for i = 1 to m do
        s := !s +. (1. /. Float.pow (float_of_int i) theta)
      done;
      !s
    in
    let zetan = zeta n in
    let zeta2 = zeta 2 in
    let alpha = 1. /. (1. -. theta) in
    let eta =
      (1. -. Float.pow (2. /. float_of_int n) (1. -. theta))
      /. (1. -. (zeta2 /. zetan))
    in
    { z_n = n; z_theta = theta; z_zetan = zetan; z_eta = eta; z_alpha = alpha }
  end

let zipf_sample z rng =
  if z.z_theta <= 0. then 1 + Random.State.int rng z.z_n
  else begin
    let u = Random.State.float rng 1.0 in
    let uz = u *. z.z_zetan in
    if uz < 1. then 1
    else if uz < 1. +. Float.pow 0.5 z.z_theta then 2
    else
      let k =
        1
        + int_of_float
            (float_of_int z.z_n
             *. Float.pow ((z.z_eta *. u) -. z.z_eta +. 1.) z.z_alpha)
      in
      if k < 1 then 1 else if k > z.z_n then z.z_n else k
  end

let generate_array cfg =
  let rng = Random.State.make [| cfg.seed; 0x7af1c |] in
  let value_of = Workload.value_of cfg.value_len rng in
  let z = zipf_create cfg.key_space cfg.zipf_theta in
  let preload = min cfg.preload (min cfg.key_space cfg.n_ops) in
  (* key liveness + a recycle stack, both O(1) per op *)
  let live = Bytes.make (cfg.key_space + 1) '\000' in
  let freed = Array.make (cfg.key_space + 1) 0 in
  let n_freed = ref 0 in
  let next_fresh = ref (preload + 1) in
  let n_live = ref 0 in
  let mark_live k =
    if Bytes.get live k = '\000' then begin
      Bytes.set live k '\001';
      incr n_live
    end
  in
  let burst_key = ref 0 in
  let burst_left = ref 0 in
  (* Hot-key pick: zipfian rank doubles as the key id, so rank-1 keys are
     the preloaded (certainly live early on) ones. During a burst every
     pick returns the pinned key. *)
  let hot_key () =
    if !burst_left > 0 then begin
      decr burst_left;
      !burst_key
    end
    else begin
      let k = zipf_sample z rng in
      if cfg.burst_every > 0
      && cfg.burst_len > 1
      && Random.State.int rng cfg.burst_every = 0 then begin
        burst_key := k;
        burst_left := cfg.burst_len - 1
      end;
      k
    end
  in
  let insert_key () =
    if !n_freed > 0 then begin
      decr n_freed;
      Some freed.(!n_freed)
    end
    else if !next_fresh <= cfg.key_space then begin
      let k = !next_fresh in
      incr next_fresh;
      Some k
    end
    else None  (* key space saturated: degrade to an update *)
  in
  let pick () =
    let r = Random.State.float rng 1.0 in
    if r < cfg.p_insert then
      match insert_key () with
      | Some k ->
        mark_live k;
        Op.Insert (k, value_of k)
      | None -> Op.Update (hot_key (), value_of 0)
    else if r < cfg.p_insert +. cfg.p_update then
      Op.Update (hot_key (), value_of 0)
    else if r < cfg.p_insert +. cfg.p_update +. cfg.p_delete then begin
      let k = hot_key () in
      if Bytes.get live k = '\001' && !n_live > 1 then begin
        Bytes.set live k '\000';
        decr n_live;
        freed.(!n_freed) <- k;
        incr n_freed;
        Op.Delete k
      end
      else Op.Query k  (* deleting a dead key teaches us nothing *)
    end
    else if r < cfg.p_insert +. cfg.p_update +. cfg.p_delete +. cfg.p_query
    then Op.Query (hot_key ())
    else Op.Scan (hot_key (), 1 + Random.State.int rng (max 1 cfg.scan_len))
  in
  Array.init cfg.n_ops (fun i ->
      if i < preload then begin
        let k = i + 1 in
        mark_live k;
        Op.Insert (k, value_of k)
      end
      else pick ())

let generate cfg = Array.to_list (generate_array cfg)
