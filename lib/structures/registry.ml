(* First-class-module registry of the benchmark structures, in the
   order of Table III.  LL is not a key-value mapping and is driven by
   its own harness (Section VII-A), so it is exposed separately. *)

module Hash : Intf.ORDERED_MAP = Hash_table
module Rb : Intf.ORDERED_MAP = Rb_tree
module Splay : Intf.ORDERED_MAP = Splay_tree
module Avl : Intf.ORDERED_MAP = Avl_tree
module Sg : Intf.ORDERED_MAP = Scapegoat_tree

(* Extended set: structures beyond the paper's Table III, demonstrating
   that further legacy containers run unchanged on the same runtime. *)
module Skip : Intf.ORDERED_MAP = Skip_list
module Btree : Intf.ORDERED_MAP = Btree_map
module Radix : Intf.ORDERED_MAP = Radix_tree

let maps : Intf.ordered_map list =
  [ (module Hash); (module Rb); (module Splay); (module Avl); (module Sg) ]

let extended_maps : Intf.ordered_map list =
  [ (module Skip); (module Btree); (module Radix) ]

let all_maps = maps @ extended_maps

let name (module M : Intf.ORDERED_MAP) = M.name
let map_names = List.map name all_maps

let find_map name : Intf.ordered_map =
  match
    List.find_opt
      (fun (module M : Intf.ORDERED_MAP) ->
        String.lowercase_ascii M.name = String.lowercase_ascii name)
      all_maps
  with
  | Some m -> m
  | None -> Fmt.invalid_arg "unknown structure %S" name

(* All six benchmark names, LL included, as listed in Table III. *)
let benchmark_names = "LL" :: List.map name maps
