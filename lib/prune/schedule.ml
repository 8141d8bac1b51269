(* Which eligible candidates a validation walk tests, for every pruning
   policy (DESIGN §7.2). A run makes walk 0 over the trace and then one
   further walk per [next_wave]; [decide] sees each walk's eligible
   candidates in generation order, and [observe] gets the verdict of the
   member [decide] last admitted, which generation checks before it
   decides the next candidate.

   - [Exhaustive] tests everything, in one walk.
   - [Sample n] tests every n-th eligible candidate, in one walk.
   - [Representative] asks [Equiv_class] in walk 0. Each later walk is an
     expansion wave: it tests exactly the members [Equiv_class.next_wave]
     handed out and stops once the last of them is checked. Generation is
     deterministic over the same event stream and config, so a wave
     re-materializes precisely those images.

   A member is [(fence tid, closure key)], the candidate's dedup key,
   which is stable across walks. *)

type member = int * int

type info = Equiv_class.info

type t = {
  policy : Policy.t;
  reg : member Equiv_class.t;
  mutable walk : int;               (* 0, then the wave number *)
  wave : (member, Path_sig.t * string) Hashtbl.t;
      (* the current wave's members not yet tested: class and provenance *)
  mutable seen : int;               (* eligible candidates, for [Sample] *)
  mutable prov : string;
  mutable cls : Path_sig.t option;  (* class of the member under check *)
  mutable wave_tested : int;
}

let create policy ~budget =
  { policy; reg = Equiv_class.create ~budget; walk = 0;
    wave = Hashtbl.create 64; seen = 0; prov = "exhaustive";
    cls = None; wave_tested = 0 }

(* [sig_] is forced only in a representative run's walk 0. *)
let decide t ~sig_ ~member =
  let test prov cls =
    t.prov <- prov;
    t.cls <- cls;
    `Test
  in
  match t.policy with
  | Policy.Exhaustive -> test "exhaustive" None
  | Policy.Sample n ->
    let i = t.seen in
    t.seen <- i + 1;
    if i mod n = 0 then test "sample" None else `Defer
  | Policy.Representative when t.walk = 0 ->
    let s = Lazy.force sig_ in
    (match Equiv_class.decide t.reg ~sig_:s ~member with
     | `Test -> test (Equiv_class.last_reason t.reg) (Some s)
     | `Defer -> `Defer)
  | Policy.Representative ->
    (match Hashtbl.find_opt t.wave member with
     | Some (s, prov) ->
       Hashtbl.remove t.wave member;
       t.wave_tested <- t.wave_tested + 1;
       test prov (Some s)
     | None -> `Defer)

(* Why the member under check was admitted: "exhaustive", "sample",
   "rep", "spot", "inline-expand", "tail" or "wave:K". *)
let prov t = t.prov

(* The verdict of the member under check; [`Stop] once a wave has
   checked its last member. *)
let observe t ~consistent =
  Option.iter (fun s -> Equiv_class.observe t.reg ~sig_:s ~consistent) t.cls;
  if t.walk > 0 && Hashtbl.length t.wave = 0 then `Stop else `Continue

(* The number of the next walk, if any member is still due. *)
let next_wave t =
  match Equiv_class.next_wave t.reg ~k:(t.walk + 1) with
  | [] -> None
  | ms ->
    t.walk <- t.walk + 1;
    Hashtbl.reset t.wave;
    List.iter (fun (m, s, prov) -> Hashtbl.replace t.wave m (s, prov)) ms;
    Some t.walk

(* Whether a later walk returns to crash ops an earlier one has passed. *)
let revisits t = t.policy = Policy.Representative

(* Images tested by the waves, i.e. deferred in walk 0 and then tested. *)
let wave_tested t = t.wave_tested

(* Classes, representative + spot validations, promoted classes. *)
let counts t =
  Equiv_class.(n_classes t.reg, n_reps t.reg, n_promoted t.reg)

let classes_info t = Equiv_class.classes_info t.reg
