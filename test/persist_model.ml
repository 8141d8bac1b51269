(* An independent model of x86 clwb/sfence persistency, used only by tests:
   the feasibility oracle for Crash_sim's closures and the images Crash_gen
   generates, the persistency half of the reference front end
   (Frontend_ref), and the reference crash image Crash_sim's copy-on-write
   images are compared against. It is written from the two rules of
   §4.3.1, not from Crash_sim's code, and reads the events [Trace.get]
   rebuilds:

   - Rule 1: a fence makes every store flushed before it durable.
   - Rule 2: stores to the same cache line persist in program order, so a
     crash state holds a prefix of each line's stores.

   A crash state is therefore the guaranteed stores plus a set of extras
   such that the union is prefix-closed per line. The model keeps, per
   line, the program-order list of its stores, a flushed mark (how many
   of them a flush has covered) and a guaranteed mark (how many a fence
   has made durable).

   Assumptions, stated because persistency specs and machines disagree
   (Lost in Interpretation, PAPERS.md):
   - a store lives on one cache line. Ctx splits stores at line
     boundaries, and [feed] asserts it; no registry store crosses a line
     at 200 ops;
   - a flush of a line covers every earlier store on that line, and
     nothing later (clwb / clflushopt ordered by the next fence);
   - a single thread: program order is the trace order;
   - no non-temporal stores: every store goes through the cache. *)

open Nvm

type line = {
  mutable stores : int list;  (* tids, reverse program order *)
  mutable n : int;            (* stores on the line so far *)
  mutable flushed : int;      (* how many of them a flush covered *)
  mutable guaranteed : int;   (* how many of them a fence made durable *)
}

type t = {
  lines : (int, line) Hashtbl.t;
  where : (int, int * int) Hashtbl.t;  (* store tid -> line, index *)
}

let create () = { lines = Hashtbl.create 64; where = Hashtbl.create 256 }

let line m l =
  match Hashtbl.find_opt m.lines l with
  | Some ln -> ln
  | None ->
    let ln = { stores = []; n = 0; flushed = 0; guaranteed = 0 } in
    Hashtbl.add m.lines l ln;
    ln

let feed m (ev : Trace.event) =
  match ev with
  | Store s ->
    let l = Pmem.line_of_addr s.s_addr in
    assert (Pmem.line_of_addr (s.s_addr + s.s_len - 1) = l);
    let ln = line m l in
    Hashtbl.replace m.where s.s_tid (l, ln.n);
    ln.stores <- s.s_tid :: ln.stores;
    ln.n <- ln.n + 1
  | Flush f ->
    let ln = line m f.f_line in
    ln.flushed <- ln.n
  | Fence _ -> Hashtbl.iter (fun _ ln -> ln.guaranteed <- ln.flushed) m.lines
  | _ -> ()

(* Feed trace events [from, upto) and return [upto]. *)
let feed_range m trace ~from ~upto =
  for i = from to upto - 1 do feed m (Trace.get trace i) done;
  upto

let stores_of m l = List.rev (line m l).stores

let guaranteed m tid =
  match Hashtbl.find_opt m.where tid with
  | None -> false
  | Some (l, i) -> i < (line m l).guaranteed

(* The smallest set of extras holding [tid]: by rule 2, every
   non-guaranteed store of its line up to and including it; in program
   order. *)
let closure m tid =
  match Hashtbl.find_opt m.where tid with
  | None -> []
  | Some (l, i) ->
    let g = (line m l).guaranteed in
    List.filteri (fun j _ -> j >= g && j <= i) (stores_of m l)

(* Can [persist] be durable while [avoid] is not? Only if [avoid] is
   neither guaranteed nor forced in by [persist]'s closure. *)
let feasible m ~persist ~avoid =
  (not (guaranteed m avoid)) && not (List.mem avoid (closure m persist))

(* Is guaranteed ∪ [extras] a per-line prefix? The guaranteed stores are
   one by construction, so every extra's line predecessors must be
   guaranteed or extras themselves. *)
let prefix_closed m extras =
  List.for_all
    (fun tid ->
       match Hashtbl.find_opt m.where tid with
       | None -> false
       | Some (l, i) ->
         List.for_all
           (fun t -> guaranteed m t || List.mem t extras)
           (List.filteri (fun j _ -> j < i) (stores_of m l)))
    extras

(* The crash state guaranteed ∪ [extras] as a pool, built from scratch: a
   fresh pool of [pool_size] bytes holding every guaranteed store and then
   the extras, each group written in tid order. A store lives on one line
   and, by rule 2, a line's guaranteed stores precede its extras, so each
   byte ends up holding the newest store of the state that wrote it. *)
let image m trace ~pool_size ~extras =
  let img = Pmem.create pool_size in
  let write tid =
    match Trace.get trace tid with
    | Store s -> Pmem.write_bytes img s.s_addr s.s_data
    | _ -> invalid_arg "Persist_model.image: not a store"
  in
  let durable =
    Hashtbl.fold (fun tid _ acc -> if guaranteed m tid then tid :: acc else acc)
      m.where []
  in
  List.iter write (List.sort compare durable);
  List.iter write (List.sort compare extras);
  img
