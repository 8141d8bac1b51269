(* The tested-program registry: the paper's Table 3, plus fixed variants
   used by the property tests and the two §7.7 non-key-value programs.
   [buggy] selects the as-published (defective) configuration; [fixed]
   the repaired one. *)

type group = Kv_index | Recipe | Pmdk_example | Server | Non_kv

type entry = {
  name : string;
  group : group;
  lib : [ `LL | `TX ];  (* low-level primitives vs transactions *)
  construct : string;
  paper_bug_ids : int list;  (* Table 4 rows seeded in the buggy variant *)
  buggy : unit -> Witcher.Store_intf.instance;
  fixed : unit -> Witcher.Store_intf.instance;
}

let group_name = function
  | Kv_index -> "NVM KV Index"
  | Recipe -> "RECIPE"
  | Pmdk_example -> "PMDK"
  | Server -> "Server"
  | Non_kv -> "Non-KV"

let all : entry list =
  [ { name = "libpmemobj"; group = Pmdk_example; lib = `TX;
      construct = "pool/heap management"; paper_bug_ids = [ 1 ];
      buggy = Btree_tx.libpmemobj; fixed = Btree_tx.fixed };
    { name = "woart"; group = Kv_index; lib = `LL; construct = "radix tree";
      paper_bug_ids = [ 2 ]; buggy = Woart.buggy; fixed = Woart.fixed };
    { name = "wort"; group = Kv_index; lib = `LL; construct = "radix tree";
      paper_bug_ids = []; buggy = Wort.buggy; fixed = Wort.fixed };
    { name = "fast-fair"; group = Kv_index; lib = `LL; construct = "B+ tree";
      paper_bug_ids = [ 3; 4; 5; 6 ]; buggy = Fast_fair.buggy;
      fixed = Fast_fair.fixed };
    { name = "level-hash"; group = Kv_index; lib = `LL;
      construct = "hash table"; paper_bug_ids = [ 7; 9; 17; 19; 22 ];
      buggy = Level_hash.buggy; fixed = Level_hash.fixed };
    { name = "cceh"; group = Kv_index; lib = `LL; construct = "hash table";
      paper_bug_ids = [ 24; 25 ]; buggy = Cceh.buggy; fixed = Cceh.fixed };
    { name = "p-art"; group = Recipe; lib = `LL; construct = "radix tree";
      paper_bug_ids = [ 26; 27 ]; buggy = P_art.buggy; fixed = P_art.fixed };
    { name = "p-bwtree"; group = Recipe; lib = `LL; construct = "B+tree-like";
      paper_bug_ids = [ 28; 29 ]; buggy = P_bwtree.buggy;
      fixed = P_bwtree.fixed };
    { name = "p-clht"; group = Recipe; lib = `LL; construct = "hash table";
      paper_bug_ids = [ 30; 31 ]; buggy = P_clht.base; fixed = P_clht.fixed };
    { name = "p-clht-aga"; group = Recipe; lib = `LL; construct = "hash table";
      paper_bug_ids = [ 32; 33 ]; buggy = P_clht.aga; fixed = P_clht.fixed };
    { name = "p-clht-aga-tx"; group = Recipe; lib = `TX;
      construct = "hash table"; paper_bug_ids = [ 34; 35 ];
      buggy = P_clht.aga_tx; fixed = P_clht.fixed };
    { name = "p-hot"; group = Recipe; lib = `LL; construct = "trie";
      paper_bug_ids = [ 36; 37; 38 ]; buggy = P_hot.buggy; fixed = P_hot.fixed };
    { name = "p-masstree"; group = Recipe; lib = `LL;
      construct = "B tree + trie"; paper_bug_ids = [ 39 ];
      buggy = P_masstree.buggy; fixed = P_masstree.fixed };
    { name = "b-tree"; group = Pmdk_example; lib = `TX; construct = "B tree";
      paper_bug_ids = [ 40 ]; buggy = Btree_tx.buggy; fixed = Btree_tx.fixed };
    { name = "c-tree"; group = Pmdk_example; lib = `TX;
      construct = "crit-bit tree"; paper_bug_ids = [];
      buggy = Ctree_tx.buggy; fixed = Ctree_tx.fixed };
    { name = "rb-tree"; group = Pmdk_example; lib = `TX;
      construct = "red-black tree"; paper_bug_ids = [ 41 ];
      buggy = Rbtree_tx.buggy; fixed = Rbtree_tx.fixed };
    { name = "rb-tree-aga"; group = Pmdk_example; lib = `TX;
      construct = "red-black tree"; paper_bug_ids = [ 42; 43 ];
      buggy = Rbtree_tx.aga; fixed = Rbtree_tx.fixed };
    { name = "hashmap-tx"; group = Pmdk_example; lib = `TX;
      construct = "hash table"; paper_bug_ids = [ 44 ];
      buggy = Hashmap_tx.buggy; fixed = Hashmap_tx.fixed };
    { name = "hashmap-atomic"; group = Pmdk_example; lib = `LL;
      construct = "hash table"; paper_bug_ids = [ 45; 46 ];
      buggy = Hashmap_atomic.buggy; fixed = Hashmap_atomic.fixed };
    { name = "memcached"; group = Server; lib = `LL; construct = "hash table";
      paper_bug_ids = [ 47 ]; buggy = Memcache_like.buggy;
      fixed = Memcache_like.fixed };
    { name = "redis"; group = Server; lib = `TX; construct = "hash table";
      paper_bug_ids = []; buggy = Redis_like.buggy; fixed = Redis_like.fixed };
    { name = "p-array"; group = Non_kv; lib = `LL; construct = "array";
      (* the 7.7 known bug (pmdk#4927 class) sits outside Table 4's
         numbering; 0 marks it *)
      paper_bug_ids = [ 0 ]; buggy = Parray.buggy; fixed = Parray.fixed };
    { name = "p-queue"; group = Non_kv; lib = `LL; construct = "queue";
      paper_bug_ids = []; buggy = Pqueue.buggy; fixed = Pqueue.fixed };
  ]

let find name = List.find_opt (fun e -> String.equal e.name name) all
