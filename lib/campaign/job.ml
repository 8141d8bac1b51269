(* A campaign job: one (store, variant, seed, engine-config) cell of the
   evaluation matrix. Jobs carry a stable content-derived key so that a
   journal written by one sweep can be resumed by a later one: the key
   depends only on what the job *is*, never on when or where it ran. *)

type variant = Buggy | Fixed

type spec = {
  store : string;
  variant : variant;
  seed : int;
  n_ops : int;
  max_images : int;
  prune : Prune.Policy.t;
  expand_budget : int;
}

let variant_name = function Buggy -> "buggy" | Fixed -> "fixed"

let variant_of_string = function
  | "buggy" -> Some Buggy
  | "fixed" -> Some Fixed
  | _ -> None

(* Bump the version tag if the fields that define a job ever change
   meaning; old journal entries then no longer match and re-run.
   Exhaustive jobs keep the v1 key string exactly — a pre-prune journal
   resumes under a pruning-aware binary without re-running anything —
   while non-default policies extend it, so changing the policy changes
   the cell. *)
let key spec =
  let base =
    Printf.sprintf "witcher-job-v1|%s|%s|%d|%d|%d" spec.store
      (variant_name spec.variant)
      spec.seed spec.n_ops spec.max_images
  in
  let tagged =
    match spec.prune with
    | Prune.Policy.Exhaustive -> base
    | p ->
      Printf.sprintf "%s|prune=%s|eb=%d" base (Prune.Policy.name p)
        spec.expand_budget
  in
  Digest.to_hex (Digest.string tagged)

let describe spec =
  let prune =
    match spec.prune with
    | Prune.Policy.Exhaustive -> ""
    | p -> " prune=" ^ Prune.Policy.name p
  in
  Printf.sprintf "%s/%s seed=%d n=%d%s" spec.store
    (variant_name spec.variant)
    spec.seed spec.n_ops prune

let to_json spec =
  Jsonx.Obj
    ([ ("store", Jsonx.Str spec.store);
       ("variant", Jsonx.Str (variant_name spec.variant));
       ("seed", Jsonx.Int spec.seed);
       ("n_ops", Jsonx.Int spec.n_ops);
       ("max_images", Jsonx.Int spec.max_images) ]
     @
     match spec.prune with
     | Prune.Policy.Exhaustive -> []
     | p ->
       [ ("prune", Jsonx.Str (Prune.Policy.name p));
         ("expand_budget", Jsonx.Int spec.expand_budget) ])

let of_json j =
  match
    ( Option.bind (Jsonx.member "store" j) Jsonx.to_str_opt,
      Option.bind (Jsonx.member "variant" j) Jsonx.to_str_opt )
  with
  | Some store, Some v ->
    (match variant_of_string v with
     | None -> Error ("bad variant " ^ v)
     | Some variant ->
       (* journals written before the pruning layer carry no prune
          fields; they mean exhaustive validation *)
       let prune =
         match Option.bind (Jsonx.member "prune" j) Jsonx.to_str_opt with
         | None -> Ok Prune.Policy.Exhaustive
         | Some s -> Prune.Policy.of_string s
       in
       (match prune with
        | Error e -> Error e
        | Ok prune ->
          Ok
            { store;
              variant;
              seed = Jsonx.int_field j "seed";
              n_ops = Jsonx.int_field j "n_ops";
              max_images = Jsonx.int_field j "max_images";
              prune;
              expand_budget =
                Jsonx.int_field j "expand_budget"
                  ~default:Witcher.Engine.default_cfg.expand_budget }))
  | _ -> Error "job spec missing store/variant"
