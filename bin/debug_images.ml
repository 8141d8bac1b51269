(* Developer tool: run the pipeline on one store and dump full detail for
   every inconsistent crash image — crash op, violated condition, resumed
   outputs vs. both oracles. Usage: debug_images <store> <n_ops> [max]. *)

module W = Witcher

let () =
  let store_name = try Sys.argv.(1) with _ -> "fast-fair-fixed" in
  let n_ops = try int_of_string Sys.argv.(2) with _ -> 150 in
  let max_shown = try int_of_string Sys.argv.(3) with _ -> 5 in
  let store =
    let fixed = Filename.check_suffix store_name "-fixed" in
    let base =
      if fixed then String.sub store_name 0 (String.length store_name - 6)
      else store_name
    in
    match Stores.Registry.find base with
    | Some e -> if fixed then e.fixed () else e.buggy ()
    | None -> failwith "unknown store"
  in
  let module S = (val store) in
  let wl = { W.Workload.default with n_ops } in
  let wl = if S.supports_scan then wl else W.Workload.no_scan wl in
  let ops = W.Workload.generate wl in
  let recorded = W.Driver.record (module S) ops in
  let conds = W.Infer.infer recorded.trace in
  let checker =
    W.Equiv.create (module S) ~ops:recorded.ops ~committed:recorded.outputs
  in
  let shown = ref 0 in
  let on_image (image : W.Crash_gen.image) =
    (* resumption mutates the image; keep a pristine copy for the dump *)
    let pristine = Nvm.Pmem.copy image.img in
    (match W.Equiv.check checker ~img:image.img ~crash_op:image.crash_op with
     | W.Equiv.Consistent -> ()
     | W.Equiv.Inconsistent v ->
       incr shown;
       if !shown <= max_shown then begin
         let k = image.crash_op in
         Printf.printf "=== inconsistent image: crash_op=%d (%s) crash_tid=%d\n"
           k (if k = 0 then "create" else W.Op.desc recorded.ops.(k - 1))
           image.crash_tid;
         (match image.viol with
          | W.Crash_gen.Ordering o ->
            Printf.printf "  viol: %s watch=%s(t%d) req=%s(t%d)\n"
              (W.Infer.rule_name o.rule)
              (Nvm.Sid.to_string o.watch_sid) o.watch_tid
              (Nvm.Sid.to_string o.req_sid) o.req_tid
          | W.Crash_gen.Atomicity a ->
            Printf.printf "  viol: PA1 persisted=%s(t%d) lost=%s(t%d)\n"
              (Nvm.Sid.to_string a.persisted_sid) a.persisted_tid
              (Nvm.Sid.to_string a.lost_sid) a.lost_tid
          | W.Crash_gen.Unpersisted_epoch u ->
            Printf.printf "  viol: EPOCH fence=%s first_lost=%s\n"
              (Nvm.Sid.to_string u.fence_sid)
              (Nvm.Sid.to_string u.first_lost_sid));
         Printf.printf "  first_diff=op%d got=%s committed=%s\n" v.first_diff
           (W.Output.to_string v.got) (W.Output.to_string v.expect_committed);
         (* re-resume to print full suffix *)
         let got =
           W.Driver.resume (module S) ~image:pristine ~ops:recorded.ops
             ~from_op:k ~fuel:W.Engine.default_cfg.fuel
         in
         let n = Array.length recorded.ops in
         for i = 0 to min (n - k - 1) 200 do
           let idx = k + i in
           let c = recorded.outputs.(idx) in
           if not (W.Output.equal got.(i) c) then
             Printf.printf "    op%d %-24s got=%-20s committed=%s\n" (idx + 1)
               (W.Op.desc recorded.ops.(idx)) (W.Output.to_string got.(i))
               (W.Output.to_string c)
         done
       end);
    if !shown >= max_shown then `Stop else `Continue
  in
  let stats =
    W.Crash_gen.generate ~trace:recorded.trace ~conds
      ~pool_size:recorded.pool_size ~on_image ()
  in
  Printf.printf "done: generated=%d tested=%d inconsistent_shown=%d\n"
    stats.generated stats.tested !shown
