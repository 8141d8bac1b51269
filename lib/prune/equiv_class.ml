(* The equivalence-class registry (DESIGN §7): groups eligible crash-image
   candidates by [Path_sig], validates one representative per class plus
   a few spot-checks, and defers the rest. [decide] is called once per
   eligible candidate in generation order; [observe] feeds each
   validated member's verdict back so divergence promotes the class.

   Spot-checks go to the members at power-of-two arrival indices, at most
   [budget] per class beyond the representative: a class of n members
   gets ~log2 n checks, so a heterogeneous class is caught with high
   probability without re-testing everything.

   Expansion is divergence-driven. The representative's verdict becomes
   the class's prediction; spot-checked members that agree keep the
   class collapsed, and any member disagreeing with the prediction
   promotes the whole class back into the validation queue, so pruning
   degrades to exhaustive validation on divergence instead of silently
   dropping members. An inconsistent *first* verdict is not divergence:
   the class's cluster is already reported through the representative
   (class signature = cluster key), so its deferred members could only
   re-count the same bug, never find a new one.

   Members are opaque ['a] descriptors, not images: a materialized image
   aliases the live simulator pool and dies at the next trace event, so
   deferred members are re-materialized by further deterministic
   generation walks ([Schedule]), keyed by the descriptors [next_wave]
   hands out. *)

type 'a cls = {
  sig_ : Path_sig.t;
  skey : string;                    (* stable cross-process class name *)
  mutable n_members : int;
  mutable prediction : bool option; (* Some true = predicted consistent *)
  mutable promoted : bool;
  mutable spots_used : int;
  mutable n_deferred : int;         (* members ever deferred *)
  mutable deferred : 'a list;       (* not yet in a wave, newest first *)
}

type 'a t = {
  classes : (Path_sig.t, 'a cls) Hashtbl.t;
  budget : int;                     (* spot-checks per class *)
  mutable n_reps : int;             (* representative + spot validations *)
  mutable n_inline_expanded : int;  (* validated because class already promoted *)
  mutable n_deferred : int;
  mutable n_promoted : int;
  mutable last_reason : string;
  (* why the most recent [decide] said `Test: "rep" | "spot" |
     "inline-expand". Generation is pipeline-fused (the decided image is
     checked before the next decide), so [Schedule] reports this as the
     verdict's provenance tag for the event log. *)
}

let create ~budget =
  { classes = Hashtbl.create 256; budget = max 0 budget; n_reps = 0;
    n_inline_expanded = 0; n_deferred = 0; n_promoted = 0;
    last_reason = "" }

(* Decision for the eligible candidate [member] of class [sig_]. The
   first member of an unknown class is its representative. *)
let decide t ~sig_ ~member =
  match Hashtbl.find_opt t.classes sig_ with
  | None ->
    Hashtbl.add t.classes sig_
      { sig_; skey = Path_sig.stable_key sig_; n_members = 1;
        prediction = None; promoted = false; spots_used = 0; n_deferred = 0;
        deferred = [] };
    t.n_reps <- t.n_reps + 1;
    t.last_reason <- "rep";
    `Test
  | Some c ->
    let m = c.n_members in
    c.n_members <- m + 1;
    if c.promoted then begin
      t.n_inline_expanded <- t.n_inline_expanded + 1;
      t.last_reason <- "inline-expand";
      `Test
    end
    (* m >= 1 here, so the test below picks power-of-two arrival indices *)
    else if m land (m - 1) = 0 && c.spots_used < t.budget then begin
      c.spots_used <- c.spots_used + 1;
      t.n_reps <- t.n_reps + 1;
      t.last_reason <- "spot";
      `Test
    end
    else begin
      c.deferred <- member :: c.deferred;
      c.n_deferred <- c.n_deferred + 1;
      t.n_deferred <- t.n_deferred + 1;
      `Defer
    end

(* Feed back the verdict of a member [decide] said to test. *)
let observe t ~sig_ ~consistent =
  match Hashtbl.find_opt t.classes sig_ with
  | None -> ()
  | Some c ->
    if not c.promoted then
      match c.prediction with
      | None -> c.prediction <- Some consistent
      | Some p when p = consistent -> ()
      | Some _ ->
        c.prediction <- Some consistent;
        c.promoted <- true;
        t.n_promoted <- t.n_promoted + 1

(* Expansion wave [k]: takes off the deferred lists, as (member, class,
   provenance), every promoted class's deferred members ("wave:K") and,
   in wave 1 only, the newest deferred member of each collapsed class
   predicted consistent ("tail"). Corruption accumulates over a
   workload, so the typical divergent class is consistent early and
   inconsistent late — its representative (the earliest member) and the
   power-of-two spots all pass while the tail fails. One extra check per
   collapsed class catches exactly that shape; a disagreeing tail
   promotes the class through the ordinary [observe] path, and its other
   deferred members form the next wave. A member leaves its list when it
   is handed out, so no wave repeats one, and the waves end because a
   class promotes at most once. *)
let next_wave t ~k =
  let wave = "wave:" ^ string_of_int k in
  Hashtbl.fold
    (fun _ c acc ->
       match c.deferred with
       | [] -> acc
       | ms when c.promoted ->
         c.deferred <- [];
         List.fold_left (fun acc m -> (m, c.sig_, wave) :: acc) acc ms
       | m :: rest when k = 1 && c.prediction = Some true ->
         c.deferred <- rest;
         (m, c.sig_, "tail") :: acc
       | _ -> acc)
    t.classes []

(* Per-class forensics for the end-of-run `class` events: everything the
   registry knows about a class, in stable-key order (deterministic
   event streams need a deterministic fold). *)
type info = {
  i_skey : string;
  i_sig : Path_sig.t;
  i_members : int;
  i_deferred : int;
  i_spots : int;
  i_promoted : bool;
  i_prediction : bool option;
}

let classes_info t =
  Hashtbl.fold
    (fun _ c acc ->
       { i_skey = c.skey; i_sig = c.sig_; i_members = c.n_members;
         i_deferred = c.n_deferred; i_spots = c.spots_used;
         i_promoted = c.promoted; i_prediction = c.prediction }
       :: acc)
    t.classes []
  |> List.sort (fun a b -> compare a.i_skey b.i_skey)

let last_reason t = t.last_reason

let n_classes t = Hashtbl.length t.classes
let n_reps t = t.n_reps
let n_inline_expanded t = t.n_inline_expanded
let n_deferred t = t.n_deferred
let n_promoted t = t.n_promoted
