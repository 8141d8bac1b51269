(* The campaign planner: expand (stores × variants × seeds) against the
   registry into a deterministic, registry-ordered job list. Planning is
   pure — validation errors (unknown store names) surface here, before
   any worker forks. *)

type cfg = {
  stores : string list option;  (* None = whole registry *)
  seeds : int list;
  fixed_too : bool;             (* also test every repaired variant *)
  n_ops : int;
  max_images : int;
  prune : Prune.Policy.t;
  expand_budget : int;
}

(* A single run's defaults (workload size and seed, image budget,
   expansion budget), so `witcher run` and a campaign cell agree. *)
let default =
  let module W = Witcher in
  { stores = None; seeds = [ W.Workload.default.seed ]; fixed_too = false;
    n_ops = W.Workload.default.n_ops;
    max_images = W.Crash_gen.default_cfg.max_images;
    prune = Prune.Policy.Exhaustive;
    expand_budget = W.Engine.default_cfg.expand_budget }

let registry_names () =
  List.map (fun (e : Stores.Registry.entry) -> e.name) Stores.Registry.all

(* Jobs come out store-major in registry order, then variant, then seed:
   stable input order means job keys and journals diff cleanly between
   sweeps. *)
let plan (cfg : cfg) : (Job.spec list, string) result =
  let names =
    match cfg.stores with None -> registry_names () | Some l -> l
  in
  let unknown =
    List.filter (fun n -> Stores.Registry.find n = None) names
  in
  if unknown <> [] then
    Error
      (Printf.sprintf "unknown store(s): %s (try `witcher list`)"
         (String.concat ", " unknown))
  else if cfg.seeds = [] then Error "empty seed list"
  else if cfg.n_ops <= 0 then Error "n_ops must be positive"
  else
    let variants = if cfg.fixed_too then [ Job.Buggy; Job.Fixed ] else [ Job.Buggy ] in
    Ok
      (List.concat_map
         (fun store ->
            List.concat_map
              (fun variant ->
                 List.map
                   (fun seed ->
                      { Job.store; variant; seed; n_ops = cfg.n_ops;
                        max_images = cfg.max_images; prune = cfg.prune;
                        expand_budget = cfg.expand_budget })
                   cfg.seeds)
              variants)
         names)
