(* The §7.5 random-sampling baseline: draw uniformly random *feasible*
   crash states (random per-line prefixes at random fences), ignoring
   likely-correctness conditions, and check them with the same output
   equivalence oracle. The paper ran 100M such states per program for a
   week and found at most one or two of Witcher's bugs; here the sample
   size is a parameter and the comparison point is bugs-per-tested-image. *)

open Nvm

type result = {
  sampled : int;
  mismatches : int;
  distinct_crash_sites : int;  (* distinct (op kind, fence sid) that failed *)
}

let run ?(seed = 7) ?(samples_per_fence = 2) ~trace ~pool_size
    ~(check : img:Pmem.t -> crash_op:int -> Equiv.verdict) () =
  let rng = Random.State.make [| seed |] in
  let sim = Crash_sim.create ~trace ~pool_size in
  let sampled = ref 0 in
  let mismatches = ref 0 in
  let sites = Hashtbl.create 16 in
  for i = 0 to Trace.length trace - 1 do
    (match Trace.get trace i with
     | Trace.Fence f ->
       for _ = 1 to samples_per_fence do
         let extras = Crash_sim.random_feasible_extras sim rng in
         let img = Crash_sim.materialize sim ~extras in
         incr sampled;
         match check ~img ~crash_op:f.n_op with
         | Equiv.Consistent -> ()
         | Equiv.Inconsistent _ ->
           incr mismatches;
           Hashtbl.replace sites (f.n_sid, f.n_op) ()
       done
     | _ -> ());
    Crash_sim.on_index sim i
  done;
  { sampled = !sampled; mismatches = !mismatches;
    distinct_crash_sites = Hashtbl.length sites }
