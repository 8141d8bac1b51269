(* Yat-style exhaustive testing, in two forms:

   - [estimate]: counts (in log10, since the paper reports up to 10^31)
     how many crash states an exhaustive tool would validate along a
     trace. At each fence crash point with m not-yet-guaranteed stores,
     Yat permutes the uncommitted updates: sum_{k<=m} m!/(m-k)! ~ e * m!
     states. The per-operation cumulative series is Figure 4's Yat curve;
     the spikes are rehash / split-merge operations.

   - [exhaustive]: for tiny traces, actually enumerates every feasible
     crash image at every fence (per-line prefix products) so unit tests
     can cross-check that condition-guided pruning does not miss bugs a
     full search would find on the same test case (§7.5). *)

open Nvm

(* log10(n!) with memoization. *)
let log10_fact =
  let tbl = ref [| 0.0 |] in
  fun n ->
    let cur = Array.length !tbl in
    if n >= cur then begin
      let next = Array.make (n + 64) 0.0 in
      Array.blit !tbl 0 next 0 cur;
      for i = cur to n + 63 do
        next.(i) <- next.(i - 1) +. log10 (float_of_int i)
      done;
      tbl := next
    end;
    !tbl.(n)

(* log10(10^a + 10^b) *)
let log10_add a b =
  let hi = max a b and lo = min a b in
  if hi -. lo > 15.0 then hi else hi +. log10 (1.0 +. (10.0 ** (lo -. hi)))

let log10_e = log10 (exp 1.0)

type series = {
  (* cumulative log10 of Yat crash states after each op (index = op) *)
  yat_log10 : float array;
  (* cumulative Witcher images generated after each op *)
  witcher : int array;
}

(* Build Figure 4's two curves from a trace and the per-op image counts
   produced by Crash_gen. *)
let estimate ~trace ~(per_op_images : (int, int) Hashtbl.t) ~n_ops =
  let yat = Array.make (n_ops + 1) neg_infinity in
  let total = ref neg_infinity in
  (* Yat permutes the uncommitted stores of each reordering window (the
     stores since the previous fence). *)
  let epoch_stores = ref 0 in
  for i = 0 to Trace.length trace - 1 do
    let k = Trace.kind_at trace i in
    if k = Trace.k_store then incr epoch_stores
    else if k = Trace.k_fence then begin
      let m = !epoch_stores in
      epoch_stores := 0;
      if m > 0 then begin
        let states = log10_fact m +. log10_e in
        total := log10_add !total states;
        let op = min (Trace.op_at trace i) n_ops in
        if op >= 0 then yat.(op) <- !total
      end
    end
  done;
  (* forward-fill ops with no fence *)
  let last = ref 0.0 in
  Array.iteri
    (fun i v -> if v = neg_infinity then yat.(i) <- !last else last := v)
    yat;
  let witcher = Array.make (n_ops + 1) 0 in
  Hashtbl.iter
    (fun op n -> if op >= 0 && op <= n_ops then witcher.(op) <- witcher.(op) + n)
    per_op_images;
  let acc = ref 0 in
  Array.iteri (fun i n -> acc := !acc + n; witcher.(i) <- !acc) witcher;
  { yat_log10 = yat; witcher }

type image = {
  img : Pmem.t;
  crash_tid : int;
  crash_op : int;
}

(* Enumerate all feasible crash images; only sensible for tiny traces. *)
let exhaustive ?(per_fence_limit = 512) ?(max_images = 100_000) ~trace ~pool_size
    ~on_image () =
  let sim = Crash_sim.create ~trace ~pool_size in
  let count = ref 0 in
  let stop = ref false in
  for i = 0 to Trace.length trace - 1 do
    if not !stop then begin
      (match Trace.get trace i with
       | Trace.Fence f ->
         let sets = Crash_sim.all_feasible_extras sim ~limit:per_fence_limit in
         List.iter
           (fun extras ->
              if not !stop then begin
                incr count;
                if !count > max_images then stop := true
                else begin
                  let img = Crash_sim.materialize sim ~extras in
                  match on_image { img; crash_tid = f.n_tid; crash_op = f.n_op } with
                  | `Continue -> ()
                  | `Stop -> stop := true
                end
              end)
           sets
       | _ -> ());
      Crash_sim.on_index sim i
    end
  done;
  !count
